"""Fast built-in cross-checks (the ``verify`` CLI subcommand).

Every check pits an implementation against a second route to the same
number: the recurrence against exact enumeration, closed-form thresholds
against their defining identities, lifted states and the ferro solver's
fixed points against the full map, the periodic partition form against the
iterated orbit, and the two trajectory backends against each other.  The
lifts take their scale from the map's own steps, so the lift check certifies
the solvers' ratios and the homogeneity scale, and the partition check
compares the partner state lifted on its own with the orbit's next state;
the closed-form lifts serve as oracles in the test tree.  Intended as a
seconds-scale smoke test; the full acceptance suite lives in the test tree.
"""

import math
from collections import namedtuple

from .core import (
    BoltzmannParams,
    Couplings,
    StateVector,
    derive_params,
    ratio_map,
    recurrence_residual,
    recurrence_step,
    symmetric_residual,
)
from .dynamics import BURN_IN, KERNEL_BACKEND, P_MAX, TOL, _traj
from .ferro import solve_ferro_fixed_points
from .partition import enumerate_partition, partition_recurrence, periodic_partition
from .symmetric import (
    cycle_thresholds,
    lift_fixed_point,
    lift_two_cycle,
    solve_fixed_points,
    solve_two_cycles,
)

__all__ = ["run_verify"]


VerifyResult = namedtuple("VerifyResult", "name passed detail")


def _check_recurrence_vs_enumeration() -> VerifyResult:
    cases = [
        (0.0, 0.0, 1.0),
        (0.8, -0.4, 1.1),
        (-0.6, 0.3, 0.7),
        (1.5, 1.0, 2.5),
        (0.3, -1.2, 0.5),
    ]
    worst = 0.0
    for j1, j2, t in cases:
        c = Couplings(j1, j2, t)
        p = derive_params(c)
        for n in (1, 2, 3):
            z_rec, _ = partition_recurrence(p, n)
            z_ref = enumerate_partition(c, n)
            worst = max(worst, abs(z_rec - z_ref) / z_ref)
    return VerifyResult(
        "partition recurrence vs exact enumeration",
        worst <= 1e-10,
        f"worst relative error {worst:.3e} (tolerance 1e-10)",
    )


def _check_cycle_thresholds() -> VerifyResult:
    # the star thresholds against the two-cycle quadratic itself: its
    # discriminant vanishes at each, and two roots appear one part in 1e6
    # inside the window and none as far outside
    def two_cycles(a2: float):
        return solve_two_cycles(BoltzmannParams(math.sqrt(a2), 0.5))

    th = cycle_thresholds(0.5)
    worst = 0.0
    counts = []
    for a2, inward in ((th.star_minus, 1.0 + 1e-6), (th.star_plus, 1.0 - 1e-6)):
        rep = two_cycles(a2)
        worst = max(worst, abs(rep.discriminant) / rep.b_coeff**2)
        counts += [len(two_cycles(a2 * inward).roots), len(two_cycles(a2 / inward).roots)]
    ordered = th.outer_minus <= th.star_minus and th.star_plus <= th.outer_plus
    return VerifyResult(
        "two-cycle thresholds at b=0.5",
        worst <= 1e-12 and counts == [2, 0, 2, 0] and ordered,
        f"|discriminant|/B^2 at the star thresholds {worst:.3e} (tolerance 1e-12),"
        f" roots just inside/outside each {counts} (must be [2, 0, 2, 0]),"
        f" ordering {'ok' if ordered else 'violated'}",
    )


def _check_lifts() -> VerifyResult:
    worst = 0.0
    p3 = derive_params(Couplings(0.25, 0.9, 0.5))  # three fixed points: stable, unstable, stable
    roots = solve_fixed_points(p3).roots
    for r in roots:
        worst = max(worst, recurrence_residual(p3, lift_fixed_point(p3, r.x)))
    p2 = derive_params(Couplings(0.0, -1.0, 1.0 / math.log(2.0)))  # b = 0.5
    rep = solve_two_cycles(p2)
    for y in rep.roots:
        u = lift_two_cycle(p2, y)
        w = recurrence_step(p2, recurrence_step(p2, u))
        worst = max(worst, max(abs(a - b) for a, b in zip(w, u)) / u.max_norm())
    return VerifyResult(
        "lifted fixed points and two-cycles",
        worst <= 1e-9 and len(roots) == 3,
        f"{len(roots)} slice fixed points lifted (must be 3),"
        f" worst relative fixed/period residual {worst:.3e} (tolerance 1e-9)",
    )


def _check_ferro_fixed_points() -> VerifyResult:
    p = derive_params(Couplings(1.0, 0.15, 0.6))  # one ferromagnetic flip pair
    states = [f.u for f in solve_ferro_fixed_points(p)]
    worst = max((recurrence_residual(p, u) for u in states), default=math.inf)
    nearest = min((symmetric_residual(u) for u in states), default=0.0)
    # the global spin flip reverses the components, exactly in floating point,
    # and maps the set onto itself
    closed = {u[::-1] for u in states} == set(states)
    ok = bool(states) and closed and worst <= 1e-9 and nearest > 1e-3
    return VerifyResult(
        "ferro fixed points against the full map",
        ok,
        f"{len(states)} candidates, {'flip-closed' if closed else 'not flip-closed'},"
        f" worst relative fixed-point residual {worst:.3e} (tolerance 1e-9),"
        f" smallest slice distance {nearest:.3e} (must exceed 1e-3)",
    )


def _check_periodic_partition() -> VerifyResult:
    # b = 0.5 and a = 2^0.2, so a^2 lies inside the star window: at a = 1 the
    # orbit's two lifted states are flips of each other, and Z is the same at
    # both parities of n
    p = derive_params(Couplings(0.2, -1.0, 1.0 / math.log(2.0)))
    rep = solve_two_cycles(p)
    y = rep.roots[1]
    u = lift_two_cycle(p, y)
    worst = 0.0
    for n in range(0, 8):
        z_closed = periodic_partition(p, y, n)
        z_orbit = (u.u1 + u.u2) ** 2 + (u.u3 + u.u4) ** 2
        worst = max(worst, abs(z_closed - z_orbit) / z_orbit)
        u = recurrence_step(p, u)
    return VerifyResult(
        "periodic partition values along the orbit",
        worst <= 1e-9,
        f"worst relative error {worst:.3e} (tolerance 1e-9)",
    )


def _check_backends() -> VerifyResult:
    if KERNEL_BACKEND == "python":
        return VerifyResult(
            "trajectory backends agree",
            True,
            f"compiled kernel unavailable; running on the {KERNEL_BACKEND} backend",
        )
    from . import _trajectory_py

    p = derive_params(Couplings(0.6, -0.45, 0.45))
    args = (p.a, p.b, 1.0, 0.37, 0.11, 0.92, 5000, TOL, BURN_IN, P_MAX)
    out_py = _trajectory_py.run_trajectory(*args)
    out_cy = _traj.run_trajectory(*args)
    ok = out_py == out_cy
    return VerifyResult(
        "trajectory backends agree",
        ok,
        "bitwise identical" if ok else f"mismatch: python={out_py[:4]} compiled={out_cy[:4]}",
    )


def _check_scalar_reduction() -> VerifyResult:
    p = derive_params(Couplings(0.4, 0.3, 0.9))
    u = StateVector(1.3, 0.2, 0.2, 1.3)
    w = recurrence_step(p, u)
    lhs = w.u1 / w.u2
    rhs = ratio_map(p, u.u1 / u.u2)
    err = abs(lhs - rhs) / max(1.0, abs(rhs))
    return VerifyResult(
        "slice reduction consistency",
        err <= 1e-12,
        f"ratio-map mismatch {err:.3e} (tolerance 1e-12)",
    )


def run_verify() -> list[VerifyResult]:
    return [
        _check_recurrence_vs_enumeration(),
        _check_scalar_reduction(),
        _check_cycle_thresholds(),
        _check_lifts(),
        _check_ferro_fixed_points(),
        _check_periodic_partition(),
        _check_backends(),
    ]
