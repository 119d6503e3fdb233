"""Fast built-in cross-checks (the ``verify`` CLI subcommand).

Every check pits an implementation against an independent route to the same
number: the recurrence against exact enumeration, closed-form thresholds
against their defining identities, lifted states and the ferro solver's
fixed points against the full map, the periodic partition form against the
iterated orbit, and the two trajectory backends against each other.
Intended as a seconds-scale smoke test; the full acceptance suite lives in
the test tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Couplings,
    StateVector,
    derive_params,
    ratio_map,
    recurrence_residual,
    recurrence_step,
    symmetric_residual,
)
from .dynamics import KERNEL_BACKEND
from .ferro import solve_ferro_fixed_points
from .partition import enumerate_partition, partition_recurrence, periodic_partition
from .symmetric import (
    cycle_thresholds,
    lift_fixed_point,
    lift_two_cycle,
    solve_fixed_points,
    solve_two_cycles,
)

__all__ = ["VerifyResult", "run_verify"]


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    detail: str


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
    th = cycle_thresholds(0.5)
    product = th.star_minus * th.star_plus
    ordered = th.outer_minus <= th.star_minus and th.star_plus <= th.outer_plus
    ok = abs(product - 1.0) <= 1e-12 and ordered
    return VerifyResult(
        "two-cycle thresholds at b=0.5",
        ok,
        f"star product-1 = {product - 1.0:.3e}, ordering {'ok' if ordered else 'violated'}",
    )


def _check_lifts() -> VerifyResult:
    worst = 0.0
    p3 = derive_params(Couplings(0.25, 0.9, 1.0))  # three fixed points
    for r in solve_fixed_points(p3).roots:
        worst = max(worst, recurrence_residual(p3, lift_fixed_point(p3, r.x)))
    p2 = derive_params(Couplings(0.0, -1.0, 1.0 / math.log(2.0)))  # b = 0.5
    rep = solve_two_cycles(p2)
    for y in rep.roots:
        u = lift_two_cycle(p2, y)
        w = recurrence_step(p2, recurrence_step(p2, u))
        worst = max(worst, max(abs(a - b) for a, b in zip(w, u)) / u.max_norm())
    return VerifyResult(
        "lifted fixed points and two-cycles",
        worst <= 1e-9,
        f"worst relative fixed/period residual {worst:.3e} (tolerance 1e-9)",
    )


def _check_ferro_fixed_points() -> VerifyResult:
    p = derive_params(Couplings(1.0, 0.15, 0.6))  # one ferromagnetic flip pair
    states = [f.u for f in solve_ferro_fixed_points(p)]
    worst = max((recurrence_residual(p, u) for u in states), default=math.inf)
    nearest = min((symmetric_residual(u) for u in states), default=0.0)
    unit = [tuple(x / u.max_norm() for x in u.components) for u in states]
    # the global spin flip reverses the components and maps the set onto itself
    closed = all(
        min(max(abs(x - y) for x, y in zip(s[::-1], t)) for t in unit) <= 1e-8 for s in unit
    )
    ok = bool(states) and closed and worst <= 1e-9 and nearest > 1e-3
    return VerifyResult(
        "ferro fixed points against the full map",
        ok,
        f"{len(states)} candidates, {'flip-closed' if closed else 'not flip-closed'},"
        f" worst relative fixed-point residual {worst:.3e} (tolerance 1e-9),"
        f" smallest slice distance {nearest:.3e} (must exceed 1e-3)",
    )


def _check_periodic_partition() -> VerifyResult:
    p = derive_params(Couplings(0.0, -1.0, 1.0 / math.log(2.0)))  # a=1, b=0.5
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
    from . import _trajectory_py

    try:
        from . import _trajectory  # type: ignore[attr-defined]
    except ImportError:
        return VerifyResult(
            "trajectory backends agree",
            True,
            f"compiled kernel unavailable; running on the {KERNEL_BACKEND} backend",
        )
    p = derive_params(Couplings(0.6, -0.45, 0.45))
    args = (p.a, p.b, 1.0, 0.37, 0.11, 0.92, 5000, 1e-12, 200, 64)
    out_py = _trajectory_py.run_trajectory(*args)
    out_cy = _trajectory.run_trajectory(*args)
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
