"""Projective trajectory engine and phase classification.

A trajectory repeats "apply one generation, rescale to unit max-norm"; the
rescaling is harmless because the recurrence is homogeneous of degree two, and
necessary because raw weights grow doubly exponentially.  A run ends in one of
three ways: the direction stops moving (fixed direction), the direction
revisits a state seen p steps earlier (cycle of period p), or the iteration
budget runs out (aperiodic at the given tolerance).

Phase dictionary: a fixed direction on the symmetric slice is paramagnetic;
a fixed direction on the ferro surface is ferromagnetic; a period-p cycle is
the p-commensurate phase; an unresolved trajectory is labelled incommensurate.
A fixed direction matching neither surface is labelled ``fixed-direction-other``
and counted -- it is not expected to occur, since a fixed direction rescales
to a true fixed point, but the label keeps the classifier honest.

The inner loop lives in a compiled extension when available, with a
bit-identical pure-Python fallback; ``KERNEL_BACKEND`` records which one was
selected (set CAYLEYPHASE_PURE_PYTHON=1 to force the fallback).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from .core import (
    BoltzmannParams,
    DomainError,
    ParameterRangeError,
    StateVector,
    ferro_residual,
    ratio_map,
    recurrence_step,
    symmetric_residual,
)
from .symmetric import solve_fixed_points, solve_two_cycles

if os.environ.get("CAYLEYPHASE_PURE_PYTHON"):
    from . import _trajectory_py as _traj
else:
    try:
        from . import _trajectory as _traj  # type: ignore[attr-defined]
    except ImportError:
        from . import _trajectory_py as _traj

KERNEL_BACKEND = _traj.BACKEND

__all__ = [
    "KERNEL_BACKEND",
    "PhaseLabel",
    "SymmetricClass",
    "TrajectoryOutcome",
    "classify_phase",
    "iterate",
    "normalize",
    "symmetric_attractor_class",
]

FIXED_DIRECTION = "fixed-direction"
CYCLE = "cycle"
APERIODIC = "aperiodic"

PARAMAGNETIC = "paramagnetic"
FERROMAGNETIC = "ferromagnetic"
COMMENSURATE = "commensurate"
INCOMMENSURATE = "incommensurate"
FIXED_DIRECTION_OTHER = "fixed-direction-other"

_KIND_NAMES = {0: FIXED_DIRECTION, 1: CYCLE, 2: APERIODIC}

DEFAULT_MAX_ITER = 20000
DEFAULT_TOL = 1e-12
DEFAULT_BURN_IN = 200
DEFAULT_P_MAX = 64
CLASSIFY_TOL = 1e-6


@dataclass(frozen=True)
class TrajectoryOutcome:
    """Result of one projective run.

    ``attractor`` holds unit-max-norm states: the limit (fixed direction or
    aperiodic's last state) or the final full period, oldest first.
    ``residual`` is the max-norm difference that triggered the verdict (the
    last step difference for aperiodic runs).
    """

    kind: str
    period: Optional[int]
    attractor: tuple[StateVector, ...]
    iterations_used: int
    residual: float


@dataclass(frozen=True)
class PhaseLabel:
    phase: str
    period: Optional[int]
    m1_residual: float
    m2_residual: float


@dataclass(frozen=True)
class SymmetricClass:
    """Asymptotic class of a symmetric-slice trajectory: the attracting ratio
    and whether the full sequence or only every second step converges."""

    kind: str  # "asymptotically-fixed" | "asymptotically-periodic"
    target: float


def normalize(u: StateVector) -> StateVector:
    """Rescale so the largest component is exactly 1."""
    m = u.max_norm()
    return StateVector(u.u1 / m, u.u2 / m, u.u3 / m, u.u4 / m)


def iterate(
    p: BoltzmannParams,
    u0: StateVector,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    burn_in: int = DEFAULT_BURN_IN,
    p_max: int = DEFAULT_P_MAX,
) -> TrajectoryOutcome:
    """Run the projective trajectory from ``u0`` until it resolves.

    A fixed direction is declared when successive normalised states differ by
    at most ``tol`` in max-norm; a cycle of period q (2 <= q <= p_max, smallest
    first) when the state returns within ``tol`` to the state q steps earlier,
    checked only after ``burn_in`` steps; otherwise the run is aperiodic after
    ``max_iter`` steps -- a valid outcome, not an error.  Raises
    ``ParameterRangeError`` when a component of the run underflows to zero.
    """
    if max_iter < 100:
        raise DomainError("max_iter must be at least 100")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError("tol must be positive")
    if burn_in < 1:
        raise DomainError("burn_in must be at least 1")
    if not 2 <= p_max <= 256:
        raise DomainError("p_max must be between 2 and 256")
    start = normalize(u0)
    kind_code, period, iters, residual, states = _traj.run_trajectory(
        p.a, p.b, start.u1, start.u2, start.u3, start.u4, max_iter, tol, burn_in, p_max
    )
    try:
        attractor = tuple(StateVector(*s) for s in states)
    except DomainError as exc:
        raise ParameterRangeError(f"trajectory left the floating-point range: {exc}") from exc
    return TrajectoryOutcome(
        kind=_KIND_NAMES[kind_code],
        period=period if kind_code == 1 else None,
        attractor=attractor,
        iterations_used=iters,
        residual=residual,
    )


def _rescale_to_fixed_point(p: BoltzmannParams, state: StateVector) -> StateVector:
    """True fixed point behind a unit-norm fixed direction.

    If F(u_hat) = lam * u_hat then F(u_hat / lam) = u_hat / lam exactly, by
    degree-2 homogeneity; the ferro surface lives at that absolute scale, so
    membership must be tested there, not at unit normalisation.
    """
    lam = recurrence_step(p, state).max_norm() / state.max_norm()
    return StateVector(*(c / lam for c in state.components))


def classify_phase(
    p: BoltzmannParams, outcome: TrajectoryOutcome, tol: float = CLASSIFY_TOL
) -> PhaseLabel:
    """Phase label for a resolved trajectory.

    The slice residual is scale-free; the ferro residual of a fixed direction
    is evaluated on the homogeneity-rescaled true fixed point.  For cycles and
    aperiodic runs both residuals are reported as diagnostics of the last
    state only.
    """
    state = outcome.attractor[-1]
    m1 = symmetric_residual(state)
    if outcome.kind == FIXED_DIRECTION:
        try:
            m2 = ferro_residual(p, _rescale_to_fixed_point(p, state))
        except DomainError:
            m2 = ferro_residual(p, state)
    else:
        m2 = ferro_residual(p, state)
    if outcome.kind == CYCLE:
        return PhaseLabel(COMMENSURATE, outcome.period, m1, m2)
    if outcome.kind == APERIODIC:
        return PhaseLabel(INCOMMENSURATE, None, m1, m2)
    if m1 <= tol:
        return PhaseLabel(PARAMAGNETIC, None, m1, m2)
    if m2 <= tol:
        return PhaseLabel(FERROMAGNETIC, None, m1, m2)
    return PhaseLabel(FIXED_DIRECTION_OTHER, None, m1, m2)


def symmetric_attractor_class(
    p: BoltzmannParams,
    u0: StateVector,
    max_steps: int = 200_000,
    tol: float = 1e-13,
) -> SymmetricClass:
    """Asymptotic class of a symmetric-slice start that is not itself periodic.

    For b >= 1 the ratio iteration converges and the class is the attracting
    fixed ratio (which of the stable roots depends on the side of the unstable
    one the start falls on).  For b < 1 every second step converges; the class
    carries that limit, which is a two-cycle ratio when two-cycles exist and
    the unique fixed ratio otherwise (then the full sequence converges too).
    """
    if symmetric_residual(u0) > 1e-10:
        raise DomainError("start must lie on the symmetric slice")
    x0 = u0.u1 / u0.u2
    fixed = tuple(r.x for r in solve_fixed_points(p).roots)
    cycle = solve_two_cycles(p).roots
    for ref in fixed + cycle:
        if abs(x0 - ref) <= 1e-10 * max(1.0, ref):
            raise DomainError("start is (numerically) a periodic point; class undefined")

    double_step = p.b < 1.0
    x = x0
    for _ in range(max_steps):
        x_next = ratio_map(p, ratio_map(p, x)) if double_step else ratio_map(p, x)
        if abs(x_next - x) <= tol * max(1.0, x):
            x = x_next
            break
        x = x_next

    if double_step:
        on_fixed = any(abs(x - r) <= 1e-6 * max(1.0, r) for r in fixed)
        if cycle and not on_fixed:
            target = min(cycle, key=lambda r: abs(r - x))
            return SymmetricClass("asymptotically-periodic", target)
        target = min(fixed, key=lambda r: abs(r - x))
        return SymmetricClass("asymptotically-fixed", target)
    target = min(fixed, key=lambda r: abs(r - x))
    return SymmetricClass("asymptotically-fixed", target)
