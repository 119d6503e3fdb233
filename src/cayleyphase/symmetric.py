"""Fixed points, two-cycles, and critical structure on the symmetric slice.

On the slice ``u1 == u4, u2 == u3`` the four-component recurrence closes over
the scalar ratio map ``x -> a^2 ((1 + b^2 x)/(b^2 + x))^2``.  This module
locates that map's fixed points and period-two orbits, classifies their
stability, lifts them back to four-component states, derives the critical
temperature and critical curves where the counts change, and verifies that no
periods beyond two occur on the slice.

The fixed-point count is analysed in the substituted coordinate ``y = b^2 x``
with ``b4 = b**4``: the condition becomes ``level(y) = 1/(a^2 b^6)`` with
``level(y) = (1/y)((1+y)/(b4+y))^2``.  ``level`` is strictly decreasing unless
``b4 > 9``, in which case it has a local minimum/maximum at the roots of
``y^2 + (3 - b4) y + b4 = 0``; three fixed points coexist exactly when the
level falls strictly inside the window spanned by those two critical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BoltzmannParams,
    Couplings,
    DomainError,
    ParameterRangeError,
    StateVector,
    bracketed_root,
    derive_params,
    ratio_map,
    ratio_map2,
    ratio_map_deriv,
)

__all__ = [
    "CriticalCurveSample",
    "CycleThresholds",
    "FixedPointReport",
    "FixedPointRoot",
    "PeriodExclusionReport",
    "PeriodFinding",
    "TwoCycleReport",
    "critical_curve",
    "critical_temperature",
    "cycle_thresholds",
    "exclude_higher_periods",
    "lift_fixed_point",
    "lift_two_cycle",
    "multi_root_window",
    "phase_counts",
    "solve_fixed_points",
    "solve_two_cycles",
    "tabulate_critical_curves",
]

STABLE = "stable"
UNSTABLE = "unstable"
SADDLE_BOUNDARY = "saddle-boundary"

# Window-edge detection and root deduplication share the sqrt(eps) scale at
# which a double root splits under last-ulp coefficient noise.
_BOUNDARY_RTOL = 1e-8
_ROOT_DEDUP_RTOL = 1e-8
_LIFT_INPUT_RTOL = 1e-8
# Two-cycle discriminant below this fraction of B^2 is treated as the
# degenerate (merged-pair) boundary.
_DEGENERATE_WINDOW = 1e-14
_EQUALITY_RTOL = 1e-12
_SCAN_POINTS_PER_DECADE = 4096


@dataclass(frozen=True)
class FixedPointRoot:
    x: float
    derivative: float
    stability: str


@dataclass(frozen=True)
class FixedPointReport:
    """Positive fixed points of the ratio map, ascending, with stability tags."""

    roots: tuple[FixedPointRoot, ...]
    regime: str  # "unique" | "two" | "three"


@dataclass(frozen=True)
class CycleThresholds:
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


@dataclass(frozen=True)
class TwoCycleReport:
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
    thresholds: CycleThresholds


@dataclass(frozen=True)
class CriticalCurveSample:
    j2: float
    beta: float
    j1_plus: Optional[float]
    j1_minus: Optional[float]


@dataclass(frozen=True)
class PeriodFinding:
    period: int
    roots: tuple[float, ...]
    matched: tuple[bool, ...]
    max_mismatch: float


@dataclass(frozen=True)
class PeriodExclusionReport:
    max_period: int
    reference_fixed: tuple[float, ...]
    reference_cycle: tuple[float, ...]
    findings: tuple[PeriodFinding, ...]
    all_accounted: bool


def _window_critical_points(b_tilde: float) -> Optional[tuple[float, float]]:
    """Positive critical points of the level function, present iff b_tilde > 9."""
    if b_tilde <= 9.0:
        return None
    disc = (b_tilde - 3.0) ** 2 - 4.0 * b_tilde
    s = math.sqrt(disc)
    y_hi = 0.5 * ((b_tilde - 3.0) + s)
    y_lo = b_tilde / y_hi  # product of the roots is b_tilde
    return (y_lo, y_hi)


def _level(y: float, b_tilde: float) -> float:
    r = (1.0 + y) / (b_tilde + y)
    return r * r / y


def _log_level(y: float, b_tilde: float) -> float:
    return 2.0 * math.log1p(y) - 2.0 * math.log(b_tilde + y) - math.log(y)


def multi_root_window(b_tilde: float) -> Optional[tuple[float, float]]:
    """Window of levels ``1/(a^2 b^6)`` with three fixed points; None if b_tilde <= 9."""
    crit = _window_critical_points(b_tilde)
    if crit is None:
        return None
    lo, hi = (_level(crit[0], b_tilde), _level(crit[1], b_tilde))
    if lo > hi:
        lo, hi = hi, lo
    return (lo, hi)


def _target_log_level(p: BoltzmannParams) -> float:
    # log(1/(a^2 b^6)) without forming the (possibly extreme) ratio itself
    return -2.0 * math.log(p.a) - 6.0 * math.log(p.b)


def _expand_down(psi, y: float) -> float:
    for _ in range(800):
        if psi(y) > 0.0:
            return y
        y *= 0.1
    raise ArithmeticError("failed to bracket fixed-point root from below")


def _expand_up(psi, y: float) -> float:
    for _ in range(800):
        if psi(y) < 0.0:
            return y
        y *= 10.0
    raise ArithmeticError("failed to bracket fixed-point root from above")


def _polish_fixed(p: BoltzmannParams, x: float) -> float:
    # one or two Newton steps on f(x) - x in the original (non-cleared) form
    for _ in range(2):
        d = ratio_map_deriv(p, x) - 1.0
        if abs(d) < 1e-6:
            break
        xn = x - (ratio_map(p, x) - x) / d
        if not (xn > 0.0 and math.isfinite(xn)):
            break
        x = xn
    return x


def _stability_tag(deriv: float) -> str:
    if abs(abs(deriv) - 1.0) <= _BOUNDARY_RTOL:
        return SADDLE_BOUNDARY
    return STABLE if abs(deriv) < 1.0 else UNSTABLE


def solve_fixed_points(p: BoltzmannParams) -> FixedPointReport:
    """All positive fixed points of the ratio map with stability tags.

    Roots are bracketed on the monotone intervals of the level function (so
    the count is structurally exact, including double roots at the window
    edges, which are reported once with the boundary tag) and polished by
    Newton steps on ``ratio_map(x) - x``.
    """
    b2 = p.b * p.b
    b_tilde = p.b_tilde
    target = _target_log_level(p)

    def psi(y: float) -> float:
        return _log_level(y, b_tilde) - target

    crit = _window_critical_points(b_tilde)
    ys: list[float] = []
    if crit is None:
        y_lo = _expand_down(psi, 1.0)
        y_hi = _expand_up(psi, max(10.0 * y_lo, 1.0))
        ys.append(bracketed_root(psi, y_lo, y_hi))
    else:
        y_lo_c, y_hi_c = crit
        log_nu_lo = _log_level(y_lo_c, b_tilde)
        log_nu_hi = _log_level(y_hi_c, b_tilde)
        at_lo = abs(target - log_nu_lo) <= _BOUNDARY_RTOL
        at_hi = abs(target - log_nu_hi) <= _BOUNDARY_RTOL
        if at_lo:
            # tangency at the window's lower edge plus one crossing beyond
            ys.append(y_lo_c)
            ys.append(bracketed_root(psi, y_hi_c, _expand_up(psi, 10.0 * y_hi_c)))
        elif at_hi:
            ys.append(bracketed_root(psi, _expand_down(psi, 0.9 * y_lo_c), y_lo_c))
            ys.append(y_hi_c)
        elif log_nu_lo < target < log_nu_hi:
            ys.append(bracketed_root(psi, _expand_down(psi, 0.9 * y_lo_c), y_lo_c))
            ys.append(bracketed_root(psi, y_lo_c, y_hi_c))
            ys.append(bracketed_root(psi, y_hi_c, _expand_up(psi, 10.0 * y_hi_c)))
        elif target > log_nu_hi:
            ys.append(bracketed_root(psi, _expand_down(psi, 0.9 * y_lo_c), y_lo_c))
        else:
            ys.append(bracketed_root(psi, y_hi_c, _expand_up(psi, 10.0 * y_hi_c)))

    xs = sorted(_polish_fixed(p, y / b2) for y in ys)
    merged: list[float] = []
    for x in xs:
        if merged and x - merged[-1] <= _ROOT_DEDUP_RTOL * max(1.0, x):
            continue
        merged.append(x)
    roots = tuple(
        FixedPointRoot(x=x, derivative=ratio_map_deriv(p, x), stability=_stability_tag(ratio_map_deriv(p, x)))
        for x in merged
    )
    regime = {1: "unique", 2: "two", 3: "three"}[len(roots)]
    return FixedPointReport(roots=roots, regime=regime)


def cycle_thresholds(b: float) -> CycleThresholds:
    """Closed-form thresholds in ``a**2`` for two-cycle existence at this b."""
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError("b must be positive and finite")
    b4 = b**4
    b6 = b**6
    b8 = b**8
    star_minus = star_plus = None
    s = 9.0 * b4 - 1.0
    if s <= 1e-12:
        rad = max((b4 - 1.0) ** 3 * s, 0.0)
        r = math.sqrt(rad)
        mid = 1.0 - 3.0 * b8 - 6.0 * b4
        # both threshold quadratics have root product exactly 1; the lower
        # root via the reciprocal avoids the cancellation in (mid - r)
        star_plus = (mid + r) / (8.0 * b6)
        star_minus = 1.0 / star_plus
    outer_minus = outer_plus = None
    s2 = (b4 - 1.0) ** 2 - 4.0 * b4
    if b < 1.0 and s2 >= -1e-12:
        r2 = (1.0 - b4) * math.sqrt(max(s2, 0.0))
        mid2 = 1.0 - 4.0 * b4 - b8
        outer_plus = (mid2 + r2) / (4.0 * b6)
        outer_minus = 1.0 / outer_plus
    return CycleThresholds(star_minus, star_plus, outer_minus, outer_plus)


def _polish_two_cycle(p: BoltzmannParams, x: float) -> float:
    for _ in range(2):
        fx = ratio_map(p, x)
        d = ratio_map_deriv(p, fx) * ratio_map_deriv(p, x) - 1.0
        if abs(d) < 1e-6:
            break
        xn = x - (ratio_map(p, fx) - x) / d
        if not (xn > 0.0 and math.isfinite(xn)):
            break
        x = xn
    return x


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
    polished on the two-generation residual, and map to each other under one
    generation.
    """
    a2 = p.a * p.a
    b2 = p.b * p.b
    b4 = b2 * b2
    b6 = b4 * b2
    b8 = b4 * b4
    B = a2 * (b8 + 2.0 * (1.0 / a2 + a2) * b6 + 4.0 * b4 - 1.0)
    try:
        lead = b4 * (1.0 + a2 * b2) ** 2
        const = b4 * (a2 + b2) ** 2
    except OverflowError as exc:
        raise ParameterRangeError("two-cycle quadratic overflows a double") from exc
    disc = -a2 * (b4 - 1.0) ** 2 * (4.0 * b6 * a2 * a2 + (3.0 * b8 + 6.0 * b4 - 1.0) * a2 + 4.0 * b6)

    roots: tuple[float, ...] = ()
    degenerate = False
    if B < 0.0:
        if disc > _DEGENERATE_WINDOW * B * B:
            # stable quadratic formula: large root via -B + sqrt(D), small via product
            t = 0.5 * (-B + math.sqrt(disc))
            x_hi = _polish_two_cycle(p, t / lead)
            x_lo = _polish_two_cycle(p, const / t)
            roots = (x_lo, x_hi)
        elif abs(disc) <= _DEGENERATE_WINDOW * B * B:
            roots = (-B / (2.0 * lead),)
            degenerate = True
    return TwoCycleReport(
        b_coeff=B,
        discriminant=disc,
        roots=roots,
        degenerate=degenerate,
        thresholds=cycle_thresholds(p.b),
    )


def lift_fixed_point(p: BoltzmannParams, x: float) -> StateVector:
    """Four-component fixed point on the symmetric slice with ratio ``x``.

    ``x`` must be a fixed point of the ratio map (checked to 1e-8 relative).
    """
    if abs(ratio_map(p, x) - x) > _LIFT_INPUT_RTOL * max(1.0, x):
        raise DomainError(f"x={x!r} is not a fixed point of the ratio map")
    u1 = 1.0 / (p.a * (p.b + 1.0 / (p.b * x)) ** 2)
    u2 = p.a / (p.b + x / p.b) ** 2
    return StateVector(u1, u2, u2, u1)


def lift_two_cycle(p: BoltzmannParams, y: float) -> StateVector:
    """Four-component period-two point on the symmetric slice with ratio ``y``.

    ``y`` must satisfy the two-generation fixed-point condition.  The partner
    state of the cycle is ``lift_two_cycle(p, ratio_map(p, y))``.
    """
    if abs(ratio_map2(p, y) - y) > _LIFT_INPUT_RTOL * max(1.0, y):
        raise DomainError(f"y={y!r} is not a period-two ratio")
    a = p.a
    b = p.b
    e1 = a * b * (b + 1.0 / (b * y)) ** 2 + (b / y + 1.0 / b) ** 2 / (a * b)
    e2 = b * (b + y / b) ** 2 / a + a * (b * y + 1.0 / b) ** 2 / b
    u1 = a ** (-1.0 / 3.0) * e1 ** (-2.0 / 3.0)
    u2 = a ** (1.0 / 3.0) * e2 ** (-2.0 / 3.0)
    return StateVector(u1, u2, u2, u1)


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
    b = math.exp(j2 * beta)
    th = cycle_thresholds(b)
    j1_plus = j1_minus = None
    if th.star_plus is not None and th.star_plus > 0.0:
        j1_plus = math.log(th.star_plus) / (2.0 * beta)
    if th.star_minus is not None and th.star_minus > 0.0:
        j1_minus = math.log(th.star_minus) / (2.0 * beta)
    return CriticalCurveSample(j2=j2, beta=beta, j1_plus=j1_plus, j1_minus=j1_minus)


def tabulate_critical_curves(j2_values, temperature: float) -> list[CriticalCurveSample]:
    """Critical-curve samples over a j2 range at fixed temperature.

    Samples with ``j2 >= 0`` or ``T >= critical_temperature(j2)`` yield rows
    with absent branches rather than errors.
    """
    beta = 1.0 / temperature
    out = []
    for j2 in j2_values:
        if j2 < 0.0:
            out.append(critical_curve(j2, beta))
        else:
            out.append(CriticalCurveSample(j2=float(j2), beta=beta, j1_plus=None, j1_minus=None))
    return out


def _isclose_rel(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def phase_counts(c: Couplings) -> tuple[int, int]:
    """(number of symmetric fixed-point phases, number of period-two phases).

    The first count follows the fixed-point regimes: 3 when ``1/a`` lies
    strictly inside ``(b^3 sqrt(nu_lo), b^3 sqrt(nu_hi))``, 2 on the edges,
    1 otherwise.  The second follows the two-cycle thresholds: 2 when ``a**2``
    lies strictly inside the star window, 1 on its edges, 0 otherwise.
    """
    p = derive_params(c)
    para = 1
    window = multi_root_window(p.b_tilde)
    if window is not None:
        b3 = p.b**3
        lo = b3 * math.sqrt(window[0])
        hi = b3 * math.sqrt(window[1])
        ainv = 1.0 / p.a
        if _isclose_rel(ainv, lo, _EQUALITY_RTOL) or _isclose_rel(ainv, hi, _EQUALITY_RTOL):
            para = 2
        elif lo < ainv < hi:
            para = 3
    comm2 = 0
    th = cycle_thresholds(p.b)
    if th.star_minus is not None:
        a2 = p.a * p.a
        # at the b threshold the two star values merge; rounding splits them
        # by ~sqrt(eps), so treat a near-merged pair as the single point it is
        if (th.star_plus - th.star_minus) <= 1e-7 * th.star_plus:
            mid = 0.5 * (th.star_minus + th.star_plus)
            comm2 = 1 if abs(a2 - mid) <= 1e-7 * mid else 0
        elif _isclose_rel(a2, th.star_minus, _EQUALITY_RTOL) or _isclose_rel(a2, th.star_plus, _EQUALITY_RTOL):
            comm2 = 1
        elif th.star_minus < a2 < th.star_plus:
            comm2 = 2
    return para, comm2


def exclude_higher_periods(p: BoltzmannParams, max_period: int) -> PeriodExclusionReport:
    """Verify that period-p ratio orbits, 3 <= p <= max_period, do not exist.

    Scans a dense log grid for sign changes of the p-fold composed ratio map
    minus identity, refines each bracket, and checks that every root found
    coincides with a known fixed point or two-cycle ratio.  The scan interval
    is the union of [1e-6, 1e6] with (a safety margin around) the map's range
    envelope, so roots cannot sit outside it.
    """
    if not 3 <= max_period <= 8:
        raise DomainError("max_period must be between 3 and 8")
    fixed = tuple(r.x for r in solve_fixed_points(p).roots)
    cycle = solve_two_cycles(p).roots
    reference = fixed + cycle

    a2 = p.a * p.a
    env_lo = a2 * min(p.b_tilde, 1.0 / p.b_tilde)
    env_hi = a2 * max(p.b_tilde, 1.0 / p.b_tilde)
    lo = min(1e-6, env_lo / 10.0)
    hi = max(1e6, env_hi * 10.0)
    n = int(math.ceil(_SCAN_POINTS_PER_DECADE * math.log10(hi / lo))) + 1
    xs = np.geomspace(lo, hi, n)

    findings = []
    all_ok = True
    for period in range(3, max_period + 1):
        ys = xs.copy()
        for _ in range(period):
            ys = ratio_map(p, ys)
        d = ys - xs

        def resid(x: float, _period=period) -> float:
            y = x
            for _ in range(_period):
                y = ratio_map(p, y)
            return y - x

        roots: list[float] = []
        sign_change = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        for i in sign_change:
            roots.append(bracketed_root(resid, xs[i], xs[i + 1]))
        for i in np.nonzero(d == 0.0)[0]:
            roots.append(float(xs[i]))
        roots.sort()
        dedup: list[float] = []
        for r in roots:
            if dedup and r - dedup[-1] <= _ROOT_DEDUP_RTOL * max(1.0, r):
                continue
            dedup.append(r)

        matched = []
        worst = 0.0
        for r in dedup:
            dist = min((abs(r - ref) for ref in reference), default=math.inf)
            ok = dist <= _ROOT_DEDUP_RTOL * max(1.0, r)
            matched.append(ok)
            if not ok:
                worst = max(worst, dist)
                all_ok = False
        findings.append(
            PeriodFinding(period=period, roots=tuple(dedup), matched=tuple(matched), max_mismatch=worst)
        )
    return PeriodExclusionReport(
        max_period=max_period,
        reference_fixed=fixed,
        reference_cycle=cycle,
        findings=tuple(findings),
        all_accounted=all_ok,
    )
