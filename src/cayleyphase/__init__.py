"""Exact phase structure of the competing-interaction Ising model on the
binary Cayley tree: branch-weight recurrence, closed-form fixed points and
two-cycles, partition functions with an enumeration oracle, and a
trajectory-based phase classifier with CLI scans.

Each module's ``__all__`` is its public API; the package re-exports them."""

__version__ = "0.1.0"

from .core import *
from .dynamics import *
from .ferro import *
from .partition import *
from .scan import *
from .symmetric import *
from .verify import *

__all__ = [name for name in dir() if not name.startswith("_")]
