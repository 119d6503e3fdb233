"""Projective trajectory engine and phase classification.

A trajectory repeats "apply one generation, rescale to unit max-norm"; the
rescaling is harmless because the recurrence is homogeneous of degree two, and
necessary because raw weights grow doubly exponentially.  A run ends when the
direction returns to the state q steps back, smallest q first: q = 1, tested
every step, is a fixed direction (period 1); 2 <= q <= ``P_MAX`` (64), tested
from step ``BURN_IN`` (200) on, a cycle of period q.  "Returns" means within
``TOL`` (1e-12) in max-norm.  A run with no return within its budget is
aperiodic (period 0).  Every run uses the same tolerance, cap and burn-in; the
kernels take all three as arguments, and their ring of past states holds 256.

Phase dictionary: a fixed direction on the symmetric slice is paramagnetic;
a fixed direction on the ferro surface is ferromagnetic (on a surface means
within ``CLASSIFY_TOL``, 1e-6, of it); a period-p cycle is the p-commensurate
phase; an unresolved trajectory is labelled incommensurate, an out-of-range
run (a component underflowed to zero) ``out-of-range``.  A fixed direction on
neither surface is ``fixed-direction-other``: at extreme weights the q = 1
test can stop a run while a component far below the max still moves by
decades, as seeds 0 and 1 at (j1, j2, T) = (232.9288032071753,
9.71014349621855, 1) do after 4 steps.

The slice basins need no trajectory: the ratio map (for b < 1 its double
step) is monotone, so a slice start's class reads off the sorted fixed and
two-cycle ratios.  No command needs that class, so its classifier lives with
the tests (``tests/oracles.py``), which check it against iteration.

The inner loop is the plain-C extension ``_trajectory`` (``_trajectory.c``,
built by ``setup.py``), with a bit-identical pure-Python twin
(``_trajectory_py``) used where the extension was not built;
``KERNEL_BACKEND`` records which one was imported.  ``scan`` and ``diagnose``
say on stderr when they run on the twin, which is about 60x slower.
"""

import sys
from collections import namedtuple

from .core import (
    BoltzmannParams,
    DomainError,
    ParameterRangeError,
    StateVector,
    _computed,
    ferro_residual,
    normalize,
    periodic_state,
    symmetric_residual,
)

try:
    from . import _trajectory as _traj  # type: ignore[attr-defined]
except ImportError:
    from . import _trajectory_py as _traj

KERNEL_BACKEND = _traj.BACKEND

__all__ = [
    "KERNEL_BACKEND",
    "PhaseLabel",
    "TrajectoryOutcome",
    "classify_phase",
    "iterate",
]

FIXED_DIRECTION = "fixed-direction"
CYCLE = "cycle"
APERIODIC = "aperiodic"
# a kind of outcome and the phase of its label
OUT_OF_RANGE = "out-of-range"

PARAMAGNETIC = "paramagnetic"
FERROMAGNETIC = "ferromagnetic"
COMMENSURATE = "commensurate"
INCOMMENSURATE = "incommensurate"
FIXED_DIRECTION_OTHER = "fixed-direction-other"

_KIND_NAMES = {0: FIXED_DIRECTION, 1: CYCLE, 2: APERIODIC}

DEFAULT_MAX_ITER = 20000
TOL = 1e-12
BURN_IN = 200
P_MAX = 64
CLASSIFY_TOL = 1e-6


class TrajectoryOutcome(namedtuple("TrajectoryOutcome", "kind period attractor iterations_used residual")):
    """Result of one projective run.

    ``period`` is 1 (fixed direction), q (cycle) or 0 (aperiodic).
    ``attractor`` holds unit-max-norm states (a tuple of ``StateVector``):
    the limit (fixed direction or aperiodic's last state) or the final full
    period, oldest first.  ``residual`` is the max-norm difference that
    triggered the verdict (the last step difference for aperiodic runs).
    An out-of-range run keeps only ``iterations_used``, the step at which
    the kernel stopped: its period and residual are None, its attractor empty.
    """

    __slots__ = ()


# period is the cycle's for a commensurate label, else None
PhaseLabel = namedtuple("PhaseLabel", "phase period m1_residual m2_residual")


def iterate(p: BoltzmannParams, u0: StateVector, max_iter: int = DEFAULT_MAX_ITER) -> TrajectoryOutcome:
    """Run the projective trajectory from ``u0`` until it resolves.

    The run ends at the smallest q whose state q steps earlier is within
    ``TOL`` (1e-12) in max-norm: q = 1, tested every step, is a fixed direction
    (period 1); 2 <= q <= ``P_MAX`` (64), tested from step ``BURN_IN`` (200)
    on, a cycle of period q.  With no return in ``max_iter`` steps the run is
    aperiodic (period 0) -- a valid outcome, not an error.  A run whose
    final states hold a component outside (0, inf) -- in the cold corner one
    underflows to zero -- is ``out-of-range``, also a valid outcome.
    """
    if not 100 <= max_iter <= sys.maxsize:  # the compiled kernel counts in a C ssize_t
        raise DomainError(f"max_iter must be between 100 and {sys.maxsize}")
    start = normalize(u0)
    kind_code, period, iters, residual, states = _traj.run_trajectory(
        p.a, p.b, start.u1, start.u2, start.u3, start.u4, max_iter, TOL, BURN_IN, P_MAX
    )
    try:
        attractor = tuple(_computed("trajectory", s) for s in states)
    except ParameterRangeError:
        return TrajectoryOutcome(OUT_OF_RANGE, None, (), iters, None)
    return TrajectoryOutcome(
        kind=_KIND_NAMES[kind_code],
        period=period,
        attractor=attractor,
        iterations_used=iters,
        residual=residual,
    )


def classify_phase(p: BoltzmannParams, outcome: TrajectoryOutcome) -> PhaseLabel:
    """Phase label for a resolved trajectory; an out-of-range run's is all
    None but its phase, ``out-of-range``.

    A fixed direction is paramagnetic when its slice residual is at most
    ``CLASSIFY_TOL`` (1e-6), else ferromagnetic when its ferro residual is.
    A cycle is commensurate; :func:`iterate` tests periods up to ``P_MAX``
    (64) from step ``BURN_IN`` (200) on, so a longer period reads as
    incommensurate.

    The slice residual is scale-free; the ferro surface lives at the absolute
    scale of a fixed point, so the ferro residual of a fixed direction is
    evaluated on :func:`periodic_state` of it (on the unit state where that
    leaves the double range).  For cycles and aperiodic runs both residuals
    are reported as diagnostics of the last state only.
    """
    if outcome.kind == OUT_OF_RANGE:
        return PhaseLabel(OUT_OF_RANGE, None, None, None)
    state = outcome.attractor[-1]
    m1 = symmetric_residual(state)
    if outcome.kind == FIXED_DIRECTION:
        try:
            state = periodic_state(p, state)
        except ParameterRangeError:
            pass
    m2 = ferro_residual(p, state)
    if outcome.kind == CYCLE:
        return PhaseLabel(COMMENSURATE, outcome.period, m1, m2)
    if outcome.kind == APERIODIC:
        return PhaseLabel(INCOMMENSURATE, None, m1, m2)
    if m1 <= CLASSIFY_TOL:
        return PhaseLabel(PARAMAGNETIC, None, m1, m2)
    if m2 <= CLASSIFY_TOL:
        return PhaseLabel(FERROMAGNETIC, None, m1, m2)
    return PhaseLabel(FIXED_DIRECTION_OTHER, None, m1, m2)
