"""Fixed points, two-cycles, and critical structure on the symmetric slice.

On the slice ``u1 == u4, u2 == u3`` the four-component recurrence closes over
the scalar ratio map ``x -> a^2 ((1 + b^2 x)/(b^2 + x))^2``.  This module
locates that map's fixed points and period-two orbits, classifies their
stability, lifts them back to four-component states (at the scale degree-2
homogeneity fixes, :func:`core.periodic_state`), and derives the critical
temperature and critical curves where the counts change.

No orbit of period three or more exists on the slice, so none is searched
for.  The slope ``2 g(x) (b^4 - 1)/((b^2 + x)(1 + b^2 x))`` of the ratio map
g (:func:`core.ratio_map_deriv`) has the sign of ``b^4 - 1`` at every
x > 0: g is increasing for b > 1, decreasing for b < 1 and constant at
b = 1.  An increasing map moves every point that it does not fix
monotonically (``x < g(x)`` gives ``g(x) < g(g(x))``), so its periodic
points are fixed; a decreasing map has an increasing square, so its periods
are 1 and 2.

The fixed-point count is analysed in the substituted coordinate ``y = b^2 x``
with ``b4 = b**4``: the condition becomes ``level(y) = 1/(a^2 b^6)`` with
``level(y) = (1/y)((1+y)/(b4+y))^2``.  ``level`` is strictly decreasing unless
``b4 > 9``, in which case it has a local minimum/maximum at the roots of
``y^2 + (3 - b4) y + b4 = 0``; three fixed points coexist exactly when the
level falls strictly inside the window spanned by those two critical values.

Both :func:`solve_fixed_points` and :func:`phase_counts` read one sign
structure: the sign of ``log level(y) - log(1/(a^2 b^6))`` at y -> 0, at the
critical points (zero within ``_BOUNDARY_RTOL``, a double root) and at
y -> inf.  The solver brackets each sign change and the counter counts them,
so the two cannot disagree on the number of fixed points.
"""

import math
import sys
from typing import NamedTuple, Optional

from .core import (
    BoltzmannParams,
    Couplings,
    DomainError,
    ParameterRangeError,
    StateVector,
    bracketed_root,
    derive_params,
    normalize,
    periodic_state,
    ratio_map,
    ratio_map_deriv,
)

__all__ = [
    "CriticalCurveSample",
    "CycleThresholds",
    "FixedPointReport",
    "FixedPointRoot",
    "TwoCycleReport",
    "critical_curve",
    "critical_temperature",
    "cycle_thresholds",
    "lift_fixed_point",
    "lift_two_cycle",
    "phase_counts",
    "solve_fixed_points",
    "solve_two_cycles",
    "tabulate_critical_curves",
]

STABLE = "stable"
UNSTABLE = "unstable"
SADDLE_BOUNDARY = "saddle-boundary"

# Window-edge detection shares the sqrt(eps) scale at which a double root
# splits under last-ulp coefficient noise.
_BOUNDARY_RTOL = 1e-8
_LIFT_INPUT_RTOL = 1e-8
# Two-cycle discriminant below this fraction of B^2 is treated as the
# degenerate (merged-pair) boundary.
_DEGENERATE_WINDOW = 1e-14
_LOG_DOUBLE = (math.log(sys.float_info.min), math.log(sys.float_info.max))


class FixedPointRoot(NamedTuple):
    x: float
    derivative: float
    stability: str


class FixedPointReport(NamedTuple):
    """Positive fixed points of the ratio map, ascending, with stability tags."""

    roots: tuple[FixedPointRoot, ...]
    regime: str  # "unique" | "two" | "three"


class CycleThresholds(NamedTuple):
    """Existence thresholds for period-two ratios, as functions of b.

    ``star_minus/star_plus`` bound the interval of ``a**2`` where the
    two-cycle discriminant is positive (present only for ``b <= sqrt(1/3)``);
    ``outer_minus/outer_plus`` bound where the quadratic's linear coefficient
    is negative (present only for ``b <= sqrt(sqrt(2)-1)``).  When both exist,
    ``outer_minus <= star_minus < star_plus <= outer_plus``.
    """

    star_minus: Optional[float]
    star_plus: Optional[float]
    outer_minus: Optional[float]
    outer_plus: Optional[float]


class TwoCycleReport(NamedTuple):
    """Period-two ratios distinct from fixed points.

    ``b_coeff`` and ``discriminant`` are the linear coefficient and the
    discriminant of the cleared quadratic whose roots are the two cycle
    ratios; ``degenerate`` marks the boundary where the pair merges into a
    single ratio (which is then also a fixed point, with derivative -1).
    """

    b_coeff: float
    discriminant: float
    roots: tuple[float, ...]
    degenerate: bool


class CriticalCurveSample(NamedTuple):
    j2: float
    beta: float
    j1_plus: Optional[float]
    j1_minus: Optional[float]


def _window_critical_points(b_tilde: float) -> Optional[tuple[float, float]]:
    """Positive critical points of the level function, present iff b_tilde > 9."""
    if b_tilde <= 9.0:
        return None
    disc = (b_tilde - 3.0) ** 2 - 4.0 * b_tilde
    s = math.sqrt(disc)
    y_hi = 0.5 * ((b_tilde - 3.0) + s)
    y_lo = b_tilde / y_hi  # product of the roots is b_tilde
    return (y_lo, y_hi)


def _log_level(y: float, b_tilde: float) -> float:
    return 2.0 * math.log1p(y) - 2.0 * math.log(b_tilde + y) - math.log(y)


def _target_log_level(p: BoltzmannParams) -> float:
    # log(1/(a^2 b^6)) without forming the (possibly extreme) ratio itself
    return -2.0 * math.log(p.a) - 6.0 * math.log(p.b)


def _stability_tag(deriv: float) -> str:
    if abs(abs(deriv) - 1.0) <= _BOUNDARY_RTOL:
        return SADDLE_BOUNDARY
    return STABLE if abs(deriv) < 1.0 else UNSTABLE


def _level_signs(p: BoltzmannParams):
    """``psi(y) = log level(y) - log(1/(a^2 b^6))`` and its signs at the knots.

    The knots are y -> 0 (sign +1), the critical points of the level function
    (sign 0 when ``psi`` is within ``_BOUNDARY_RTOL`` of zero there: a double
    root), and y -> inf (sign -1).  ``psi`` is monotone between knots, so each
    sign change brackets exactly one root and each 0 is one root.
    """
    b_tilde = p.b_tilde
    target = _target_log_level(p)

    def psi(y: float) -> float:
        return _log_level(y, b_tilde) - target

    knots = [(0.0, 1)]
    for y in _window_critical_points(b_tilde) or ():
        v = psi(y)
        knots.append((y, 0 if abs(v) <= _BOUNDARY_RTOL else (1 if v > 0.0 else -1)))
    knots.append((math.inf, -1))
    return psi, knots


def solve_fixed_points(p: BoltzmannParams) -> FixedPointReport:
    """All positive fixed points of the ratio map with stability tags.

    Roots are bracketed on the monotone intervals of the level function (so
    the count is structurally exact, including double roots at the window
    edges, which are reported once with the boundary tag), bisected in ``y``,
    and moved by one Newton step on ``ratio_map(x) - x`` unless the slope,
    which is the reported derivative, is within 1e-6 of 1.  Every fixed ratio
    lies in the map's range ``a^2/B .. a^2 B``, ``B = max(b^4, b^-4)``;
    widened by a factor 2, that range bounds every bracket and gives ``psi =
    log(g(x)/x)`` strict signs at its ends.  A root outside the double range
    (in ``x`` or in ``y``) raises ``ParameterRangeError``.
    """
    psi, knots = _level_signs(p)
    log_b2 = 2.0 * math.log(p.b)
    mid, half = 2.0 * math.log(p.a) + log_b2, abs(2.0 * log_b2) + math.log(2.0)
    lo = math.exp(max(mid - half, _LOG_DOUBLE[0] + max(log_b2, 0.0)))
    hi = math.exp(min(mid + half, _LOG_DOUBLE[1] + min(log_b2, 0.0)))
    if not psi(lo) > 0.0 > psi(hi):
        raise ParameterRangeError("a fixed ratio lies outside the double range")
    ys: list[float] = []
    for (y0, s0), (y1, s1) in zip(knots, knots[1:]):
        if s0 * s1 < 0:
            ys.append(bracketed_root(psi, max(y0, lo), min(y1, hi)))
        if s1 == 0:
            ys.append(y1)

    b2 = p.b * p.b
    roots = []
    for y in ys:
        x = y / b2
        deriv = ratio_map_deriv(p, x)
        if abs(deriv - 1.0) > 1e-6:
            x -= (ratio_map(p, x) - x) / (deriv - 1.0)
        roots.append(FixedPointRoot(x=x, derivative=deriv, stability=_stability_tag(deriv)))
    regime = {1: "unique", 2: "two", 3: "three"}[len(roots)]
    return FixedPointReport(roots=tuple(roots), regime=regime)


def _star_numerator(b: float) -> Optional[float]:
    """``mid + r``, where ``(mid + r) / (8 b^6)`` is the upper star threshold in
    ``a**2``; None where the star window is empty (``9 b^4 - 1 > 1e-12``)."""
    b4 = b**4
    s = 9.0 * b4 - 1.0
    if s > 1e-12:
        return None
    r = math.sqrt(max((b4 - 1.0) ** 3 * s, 0.0))
    return 1.0 - 3.0 * b**8 - 6.0 * b4 + r


def cycle_thresholds(b: float) -> CycleThresholds:
    """Closed-form thresholds in ``a**2`` for two-cycle existence at this b.

    Both pairs exist only for ``b < 1``.  They span about ``2 b^6`` to
    ``1/(2 b^6)``, so ``ParameterRangeError`` is raised where ``b**6`` is
    below the normal doubles (b below about 5.3e-52): the thresholds lose
    precision there and then leave the double range.
    """
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("b must be positive and finite")
    if b >= 1.0:
        return CycleThresholds(None, None, None, None)
    b4 = b**4
    b6 = b**6
    b8 = b**8
    if b6 < sys.float_info.min:
        raise ParameterRangeError(f"two-cycle thresholds at b={b!r} leave the double range")
    star_minus = star_plus = None
    num = _star_numerator(b)
    if num is not None:
        # both threshold quadratics have root product exactly 1; the lower
        # root via the reciprocal avoids the cancellation in (mid - r)
        star_plus = num / (8.0 * b6)
        star_minus = 1.0 / star_plus
    outer_minus = outer_plus = None
    s2 = (b4 - 1.0) ** 2 - 4.0 * b4
    if s2 >= -1e-12:
        r2 = (1.0 - b4) * math.sqrt(max(s2, 0.0))
        mid2 = 1.0 - 4.0 * b4 - b8
        outer_plus = (mid2 + r2) / (4.0 * b6)
        outer_minus = 1.0 / outer_plus
    return CycleThresholds(star_minus, star_plus, outer_minus, outer_plus)


def _two_cycle_quadratic(p: BoltzmannParams):
    """``(B, disc, lead, const, count)`` of the quadratic of :func:`solve_two_cycles`;
    ``count`` is 2 for B < 0 and disc above the degenerate window, 1 inside it,
    else 0, and ``lead`` and ``const`` are formed (not None) only for roots.
    Raises ``ParameterRangeError`` where B < 0 but the window underflows to 0,
    and where roots exist but ``lead`` or ``const`` overflows."""
    a2 = p.a * p.a
    b2 = p.b * p.b
    b4 = b2 * b2
    b6 = b4 * b2
    b8 = b4 * b4
    B = a2 * (b8 + 2.0 * (1.0 / a2 + a2) * b6 + 4.0 * b4 - 1.0)
    disc = -a2 * (b4 - 1.0) ** 2 * (4.0 * b6 * a2 * a2 + (3.0 * b8 + 6.0 * b4 - 1.0) * a2 + 4.0 * b6)
    window = _DEGENERATE_WINDOW * B * B
    if B < 0.0 and window == 0.0:
        # the window cannot tell a merged pair from a discriminant that underflowed
        raise ParameterRangeError("two-cycle degenerate window underflows a double")
    count = 0 if B >= 0.0 or disc < -window else (2 if disc > window else 1)
    if count == 0:
        return B, disc, None, None, 0
    try:
        lead = b4 * (1.0 + a2 * b2) ** 2
        const = b4 * (a2 + b2) ** 2
    except OverflowError as exc:
        raise ParameterRangeError("two-cycle quadratic overflows a double") from exc
    return B, disc, lead, const, count


def solve_two_cycles(p: BoltzmannParams) -> TwoCycleReport:
    """Period-two ratios distinct from fixed points.

    Dividing the two-generation fixed-point condition by the one-generation
    one and clearing denominators leaves the quadratic

        b^4 (1 + a^2 b^2)^2 x^2 + B x + b^4 (a^2 + b^2)^2 = 0,
        B = a^2 (b^8 + 2 (a^-2 + a^2) b^6 + 4 b^4 - 1).

    Its discriminant factors as ``-a^2 (b^4-1)^2 (4 b^6 a^4 + (3 b^8 + 6 b^4
    - 1) a^2 + 4 b^6)``, which is the form computed here: it vanishes
    identically at ``b == 1`` and changes sign exactly at the ``star``
    thresholds of :func:`cycle_thresholds`.  Two positive roots exist iff
    ``B < 0`` and the discriminant is positive; they are returned ascending,
    straight from the stable form of the quadratic formula, and map to each
    other under one generation.
    """
    B, disc, lead, const, count = _two_cycle_quadratic(p)
    roots: tuple[float, ...] = ()
    if count == 2:
        # stable quadratic formula: large root via -B + sqrt(D), small via product
        t = 0.5 * (-B + math.sqrt(disc))
        roots = (const / t, t / lead)
    elif count == 1:
        roots = (-B / (2.0 * lead),)
    return TwoCycleReport(b_coeff=B, discriminant=disc, roots=roots, degenerate=count == 1)


def lift_fixed_point(p: BoltzmannParams, x: float) -> StateVector:
    """Four-component fixed point on the symmetric slice with ratio ``x``.

    ``x`` must be a fixed point of the ratio map (checked to 1e-8 relative);
    the scale comes from homogeneity (:func:`periodic_state`).
    """
    if abs(ratio_map(p, x) - x) > _LIFT_INPUT_RTOL * x:
        raise DomainError(f"x={x!r} is not a fixed point of the ratio map")
    return periodic_state(p, normalize(StateVector(x, 1.0, 1.0, x)))


def lift_two_cycle(p: BoltzmannParams, y: float) -> StateVector:
    """Four-component period-two point on the symmetric slice with ratio ``y``.

    ``y`` must satisfy the two-generation fixed-point condition but not the
    one-generation one (both checked to 1e-8 relative), except at the merged
    root of the degenerate boundary, where the slope is -1; the scale comes
    from homogeneity (:func:`periodic_state`).  The partner state of the
    cycle is ``lift_two_cycle(p, ratio_map(p, y))``.
    """
    gy = ratio_map(p, y)
    if abs(ratio_map(p, gy) - y) > _LIFT_INPUT_RTOL * y:
        raise DomainError(f"y={y!r} is not a period-two ratio")
    if abs(gy - y) <= _LIFT_INPUT_RTOL * y and abs(ratio_map_deriv(p, y) + 1.0) > _BOUNDARY_RTOL:
        raise DomainError(f"y={y!r} is a fixed ratio, not a period-two ratio")
    return periodic_state(p, normalize(StateVector(y, 1.0, 1.0, y)), 2)


def critical_temperature(j2: float) -> Optional[float]:
    """Temperature below which the slice structure changes: 2|j2|/ln 3.

    For ``j2 > 0`` this is where extra fixed points can appear; for ``j2 < 0``
    where two-cycles can appear.  Undefined at ``j2 == 0`` (returns None).
    """
    if not math.isfinite(j2):
        raise DomainError("j2 must be finite")
    if j2 == 0.0:
        return None
    return 2.0 * abs(j2) / math.log(3.0)


def critical_curve(j2: float, beta: float) -> CriticalCurveSample:
    """The two j1 values where two-cycles appear/merge at fixed (j2 < 0, beta).

    Solves ``a**2 == star threshold`` for j1; both branches are absent when
    the temperature is at or above :func:`critical_temperature`.
    """
    if not (math.isfinite(j2) and j2 < 0.0):
        raise DomainError("critical curves require j2 < 0")
    if not (math.isfinite(beta) and beta > 0.0):
        raise DomainError("beta must be positive and finite")
    num = _star_numerator(math.exp(j2 * beta))
    j1_plus = j1_minus = None
    if num is not None:
        # log(num / (8 b^6)) / (2 beta) with log b = j2 beta: b^6 may underflow
        j1_plus = (math.log(num) - math.log(8.0)) / (2.0 * beta) - 3.0 * j2
        j1_minus = -j1_plus
    return CriticalCurveSample(j2=j2, beta=beta, j1_plus=j1_plus, j1_minus=j1_minus)


def tabulate_critical_curves(j2_values, temperature: float) -> list[CriticalCurveSample]:
    """Critical-curve samples over a j2 range at fixed temperature.

    Samples with ``j2 >= 0`` or ``T >= critical_temperature(j2)`` yield rows
    with absent branches rather than errors; a temperature that is not
    positive and finite raises ``DomainError``.
    """
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise DomainError("temperature must be positive and finite")
    beta = 1.0 / temperature
    out = []
    for j2 in j2_values:
        if j2 < 0.0:
            out.append(critical_curve(j2, beta))
        else:
            out.append(CriticalCurveSample(j2=float(j2), beta=beta, j1_plus=None, j1_minus=None))
    return out


def phase_counts(c: Couplings) -> tuple[int, int]:
    """(number of fixed points, number of period-two states) of the map on
    the flip-symmetric slice.

    These are the paper's counts of Gibbs measures on the slice.  A slice
    period-two state need not attract trajectories of the full map: on scans
    over j1, j2 and T, no trajectory ended on one, every lifted slice
    two-cycle that was checked was unstable in the full map, and the
    period-2 runs ended off the slice.

    Neither count finds a root.  The first reads the sign structure that
    :func:`solve_fixed_points` brackets: one per sign change of the level
    function between its knots, plus one per double root at a window edge.
    The second is the count of the two-cycle quadratic that
    :func:`solve_two_cycles` solves: 2 inside the star window, 1 on its
    edges, 0 otherwise.
    """
    return _phase_counts(derive_params(c))


def _phase_counts(p: BoltzmannParams) -> tuple[int, int]:
    _, knots = _level_signs(p)
    para = sum(s0 * s1 < 0 for (_, s0), (_, s1) in zip(knots, knots[1:]))
    para += sum(s == 0 for _, s in knots)
    return para, _two_cycle_quadratic(p)[4]

