import math
import os
from pathlib import Path

import numpy as np
import pytest

import cayleyphase
from cayleyphase import BoltzmannParams, Couplings, StateVector

# the CLI tests start fresh interpreters: they must import the same package
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(Path(cayleyphase.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")))
)

# b^4 = 9.9e30: three fixed ratios, the two smallest 400x apart and both
# below 1e-14; TINY_RATIOS_EXACT are the roots of the slice cubic solved to
# 60 digits
TINY_RATIOS = Couplings(2.5645435717473593, 2.8075571395478782, 0.15735458936494023)
TINY_RATIOS_EXACT = (1.5980862893751724252e-17, 6.3280166699261682895e-15, 1.4166947065883585375e45)

# one point per trajectory phase: ferromagnetic, multi-root, paramagnetic,
# 2-commensurate and 4-commensurate
DIAGNOSE_POINTS = ((1.0, 0.15, 0.6), (0.25, 0.9, 1.0), (0.1, 0.05, 3.0), (0.0, -math.log(2.0), 1.0), (1.0, -0.6, 0.3))


def maxdiff(u, v) -> float:
    return max(abs(a - b) for a, b in zip(u, v))


def normalized(u: StateVector):
    m = u.max_norm()
    return tuple(c / m for c in u)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def params_symmetric_cycle():
    # a = 1, b = 0.5: two-cycle regime (a^2 = 1 sits inside the star window)
    return BoltzmannParams(1.0, 0.5)


@pytest.fixture
def params_three_roots():
    # b = 2 (b^4 = 16) with the level at the geometric centre of the window
    import math

    from cayleyphase import multi_root_window

    lo, hi = multi_root_window(16.0)
    level = math.sqrt(lo * hi)
    a = (level * 2.0**6) ** -0.5
    return BoltzmannParams(a, 2.0)
