"""Symmetry-broken (ferromagnetic) fixed points of the branch recurrence.

In the square-root variables ``v_i = sqrt(u_i)`` a fixed point satisfies

    (1) v1 = alpha (b v1^2 + v2^2 / b)        (2) v2 = (b v3^2 + v4^2 / b) / alpha
    (3) v3 = (v1^2 / b + b v2^2) / alpha      (4) v4 = alpha (v3^2 / b + b v4^2)

Two eliminations are exact: equation 4 substituted into equation 2 gives
``v2 = q(v4)``, and equation 1 substituted into equation 3 gives
``v3 = q(v1)``, with ``q(t) = (b^2/alpha^2) t + ((1/b - b^3)/alpha) t^2``.
In the scaled variables ``z = alpha b v1`` and ``w = alpha b v4``, both in
(0, 1), and with ``rho = b/a``, ``mu = b^-4 - 1`` and ``psi(t) = t + mu t^2``
(so that ``q(t) = (b/alpha^3) psi(alpha b t)``), equation 1 becomes the curve

    z (1 - z) = rho^2 psi(w)^2,

whose two branches ``z = (1 -+ sqrt(1 - 4 rho^2 psi(w)^2)) / 2`` are explicit
and merge where ``rho psi(w) = 1/2``.  Equation 1 minus equation 4, divided
by ``v1 - v4``, leaves

    D = 1 - (z + w) + rho^2 (psi(z) + psi(w)) (1 + mu (z + w)),

which is the ferro surface ``v1 + v4 = ferro_constraint(v2 + v3)`` of
:mod:`cayleyphase.core` written in these variables.  The fixed points off the
symmetric slice are therefore the roots of D along the curve: a
one-dimensional search in w.  Dividing out ``v1 - v4`` removes the symmetric
fixed points from the roots, so fixed points close to the slice are not
masked by them.  Every root is polished with Newton steps on the full
four-equation system, and a state is accepted only when the recurrence fixes
each of its four components to 1e-9 relative to that component.

Candidates come in global-spin-flip pairs (u1,u2,u3,u4) <-> (u4,u3,u2,u1),
which swap z and w.  Each pair is solved once, on its ``u1 > u4`` member; the
partner is that member reversed, since the map commutes with the reversal
bit for bit.  Candidates that collapse onto the symmetric slice are dropped
-- they belong to the fixed-point analysis there, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    BoltzmannParams,
    DomainError,
    ParameterRangeError,
    StateVector,
    bracketed_root,
    ferro_residual,
    recurrence_residual,
    recurrence_step,
    symmetric_residual,
)

__all__ = ["FerroCandidate", "solve_ferro_fixed_points"]

FULL_RESIDUAL_TOL = 1e-9
_NEAR_SYMMETRIC_TOL = 1e-3
_W_POINTS = 512
_W_FLOOR = 1e-14
_NEAR_MISS = 1e-2
_NEWTON_STEPS = 50


@dataclass(frozen=True)
class FerroCandidate:
    """One symmetry-broken fixed point: its diagonal sum C = v2+v3, the
    square-root state, the weight state, and its residual."""

    C: float
    v: tuple[float, float, float, float]
    u: StateVector
    full_residual: float


def _curve(rho: float, mu: float, w, upper: bool):
    """z on the lower or upper branch of ``z (1 - z) = rho^2 psi(w)^2``.

    The discriminant is clamped at zero, which is exact at the merge points;
    past them the curve has no real point and callers mask those w.
    """
    import numpy as np

    r = rho * (w + mu * w * w)
    h = r * r
    z = 2.0 * h / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * h, 0.0)))
    return 1.0 - z if upper else z


def _surface(rho: float, mu: float, z, w):
    """D, the ferro-surface residual in the scaled variables."""
    s = z + w
    return 1.0 - s + rho * rho * (s + mu * (z * z + w * w)) * (1.0 + mu * s)


def _stationarity(p: BoltzmannParams, v) -> list[float]:
    v1, v2, v3, v4 = v
    a = p.alpha
    b = p.b
    return [
        v1 - a * (b * v1 * v1 + v2 * v2 / b),
        v2 - (b * v3 * v3 + v4 * v4 / b) / a,
        v3 - (v1 * v1 / b + b * v2 * v2) / a,
        v4 - a * (v3 * v3 / b + b * v4 * v4),
    ]


def _stationarity_jac(p: BoltzmannParams, v) -> list[list[float]]:
    v1, v2, v3, v4 = v
    a = p.alpha
    b = p.b
    return [
        [1.0 - 2.0 * a * b * v1, -2.0 * a * v2 / b, 0.0, 0.0],
        [0.0, 1.0, -2.0 * b * v3 / a, -2.0 * v4 / (a * b)],
        [-2.0 * v1 / (a * b), -2.0 * b * v2 / a, 1.0, 0.0],
        [0.0, 0.0, -2.0 * a * v3 / b, 1.0 - 2.0 * a * b * v4],
    ]


def _polish(p: BoltzmannParams, v_seed) -> FerroCandidate | None:
    """Newton steps on the full four-equation system from ``v_seed``; the
    residual checks below, not the iteration, decide acceptance."""
    import numpy as np

    v = np.asarray(v_seed, dtype=float)
    for _ in range(_NEWTON_STEPS):
        try:
            step = np.linalg.solve(_stationarity_jac(p, v), _stationarity(p, v))
        except np.linalg.LinAlgError:
            return None
        v = v - step
        if not np.all(np.isfinite(v)):
            return None
        if np.max(np.abs(step)) <= 1e-15 * np.max(np.abs(v)):
            break
    if np.any(v <= 0.0):
        return None
    try:
        u = StateVector(*(float(x) * float(x) for x in v))
        fu = recurrence_step(p, u)
    except (DomainError, ParameterRangeError):
        return None
    # componentwise, so that a small component must converge too
    if any(abs(f - x) > FULL_RESIDUAL_TOL * x for f, x in zip(fu, u)):
        return None
    if symmetric_residual(u) <= _NEAR_SYMMETRIC_TOL:
        return None
    if ferro_residual(p, u) > FULL_RESIDUAL_TOL:
        return None
    res = recurrence_residual(p, u)
    return FerroCandidate(C=float(v[1] + v[2]), v=tuple(float(x) for x in v), u=u, full_residual=res)


def _mirror(c: FerroCandidate) -> FerroCandidate:
    # v2 + v3 == v3 + v2 and F(flip u) == flip F(u) hold bit for bit
    return FerroCandidate(c.C, c.v[::-1], StateVector(*c.u.components[::-1]), c.full_residual)


def _dedup(cands: list[FerroCandidate]) -> list[FerroCandidate]:
    kept: list[tuple[FerroCandidate, list[float]]] = []
    for c in sorted(cands, key=lambda c: c.C):
        unit = [x / c.u.max_norm() for x in c.u.components]
        if all(max(abs(a - b) for a, b in zip(unit, k)) > 1e-6 for _, k in kept):
            kept.append((c, unit))
    return [c for c, _ in kept]


def solve_ferro_fixed_points(p: BoltzmannParams) -> list[FerroCandidate]:
    """All symmetry-broken fixed points at these parameters (possibly none).

    D is evaluated on both branches of the curve over a geometric grid in w
    on (1e-14, 1), plus the points where the branches merge.  Every sign
    change of D is refined by a bracketing root-find in w, and every local
    minimum of |D| below 1e-2 is kept as a seed as well.  Each seed is
    polished on the full four-equation system, and each distinct flip pair is
    returned as its ``u1 > u4`` member followed by the mirror.  An empty list
    is a legitimate outcome (no ferromagnetic order at these parameters).
    Deterministic for fixed inputs.
    """
    rho = p.b / p.a
    mu = 1.0 / p.b_tilde - 1.0
    # the branches merge where rho psi(w) = 1/2: roots of mu w^2 + w - c
    c = 0.5 / rho
    merges = []
    disc = 1.0 + 4.0 * mu * c
    if disc >= 0.0:
        s = math.sqrt(disc)
        merges.append(2.0 * c / (1.0 + s))
        if mu != 0.0:
            merges.append(-(1.0 + s) / (2.0 * mu))
    merges = [m for m in merges if _W_FLOOR < m < 1.0]
    import numpy as np

    grid = np.union1d(np.geomspace(_W_FLOOR, 1.0, _W_POINTS), merges)

    seeds: list[tuple[float, float]] = []  # (z, w)
    # far from unit weights rho^2 psi(w)^2 and D overflow; those grid points
    # drop out as inf/NaN
    with np.errstate(over="ignore", invalid="ignore"):
        r = rho * (grid + mu * grid * grid)
        on_curve = (4.0 * r * r <= 1.0) | np.isin(grid, merges)
        for upper in (False, True):
            z = _curve(rho, mu, grid, upper)
            d = np.where(on_curve, _surface(rho, mu, z, grid), np.nan)

            def residual(w: float, _upper=upper) -> float:
                return float(_surface(rho, mu, _curve(rho, mu, w, _upper), w))

            for i in np.nonzero(d[:-1] * d[1:] < 0.0)[0]:
                try:
                    w = bracketed_root(residual, grid[i], grid[i + 1])
                except ValueError:
                    continue
                seeds.append((float(_curve(rho, mu, w, upper)), w))
            # local minima of |D| catch the near-double roots the sign test
            # cannot see: a flip pair close to the slice puts two roots of D
            # into one grid interval
            ad = np.abs(d)
            left = np.concatenate(([np.inf], ad[:-1]))
            right = np.concatenate((ad[1:], [np.inf]))
            near = (ad < _NEAR_MISS) & ~(left < ad) & ~(right < ad)
            seeds.extend((float(z[i]), float(grid[i])) for i in np.nonzero(near)[0])

    scale = p.alpha * p.b  # z = scale v1, w = scale v4
    lift = p.b / p.alpha**3  # v2 = lift psi(w), v3 = lift psi(z)
    candidates: list[FerroCandidate] = []
    for z, w in seeds:
        v = (z / scale, lift * (w + mu * w * w), lift * (z + mu * z * z), w / scale)
        if not all(0.0 < x < math.inf for x in v):
            continue
        cand = _polish(p, v)
        if cand is not None:
            candidates.append(cand if cand.u.u1 > cand.u.u4 else _mirror(cand))
    return [m for c in _dedup(candidates) for m in (c, _mirror(c))]
