"""Symmetry-broken (ferromagnetic) fixed points of the branch recurrence.

In the square-root variables ``v_i = sqrt(u_i)`` a fixed point satisfies

    (1) v1 = alpha (b v1^2 + v2^2 / b)        (2) v2 = (b v3^2 + v4^2 / b) / alpha
    (3) v3 = (v1^2 / b + b v2^2) / alpha      (4) v4 = alpha (v3^2 / b + b v4^2)

Two eliminations are exact: equation 4 substituted into equation 2 gives
``v2 = q(v4)``, and equation 1 substituted into equation 3 gives
``v3 = q(v1)``, with ``q(t) = (b^2/alpha^2) t + ((1/b - b^3)/alpha) t^2``.
In the scaled variables ``z = alpha b v1`` and ``w = alpha b v4``, both in
(0, 1), and with ``rho = b/a``, ``beta = b^-4``, ``mu = beta - 1`` and
``psi(t) = t + mu t^2`` (so that ``q(t) = (b/alpha^3) psi(alpha b t)``),
equation 1 becomes the curve

    z (1 - z) = R,    R = rho^2 psi(w)^2.

Equation 1 minus equation 4, divided by ``v1 - v4``, leaves

    D = 1 - (z + w) + rho^2 (psi(z) + psi(w)) (1 + mu (z + w)),

which is the ferro surface ``v1 + v4 = ferro_constraint(v2 + v3)`` of
:mod:`cayleyphase.core` written in these variables.  On the curve
``z^2 = z - R``, which makes D linear in z: ``D = A(w) z + B(w)`` with

    A = -1 + q (q + s w) + s e,      B = 1 - w + e (rho + s w) - q s R,
    q = rho beta,  s = rho mu,  r = rho psi(w),  R = r^2,  e = r - s R,

written with rho inside every product, so that rho^2 never under- or
overflows on its own.  A fixed point off the symmetric slice therefore has
``z = -B/A`` and is a root of the one function of w

    H(w) = z (1 - z) - R,

wherever A is not 0: a one-dimensional search with no branches to follow.
Dividing out ``v1 - v4`` removes the symmetric fixed points from the roots,
so fixed points close to the slice are not masked by them.  Every root is
polished with Newton steps on the full four-equation system, and a state is
accepted only when the recurrence fixes each of its four components to 1e-9
relative to that component.

Candidates come in global-spin-flip pairs (u1,u2,u3,u4) <-> (u4,u3,u2,u1),
which swap z and w.  Each pair is solved once, on its ``u1 > u4`` member; the
partner is that member reversed, since the map commutes with the reversal
bit for bit.  Candidates that collapse onto the symmetric slice are dropped
-- they belong to the fixed-point analysis there, not here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class FerroCandidate(NamedTuple):
    """One symmetry-broken fixed point: its diagonal sum C = v2+v3, the
    square-root state, the weight state, and its residual."""

    C: float
    v: tuple[float, float, float, float]
    u: StateVector
    full_residual: float


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

    H is evaluated over a geometric grid in w on (1e-14, 1).  Every sign
    change of H across a grid interval where A keeps its sign is refined by
    bisection in w (where A changes sign, the sign change is a pole of z, not
    a root), and every local minimum of |H| below 1e-2 is kept as a seed as
    well; a seed needs ``0 < z < 1``.  Each seed is polished on the full
    four-equation system, and each distinct flip pair is returned as its
    ``u1 > u4`` member followed by the mirror.  An empty list is a legitimate
    outcome (no ferromagnetic order at these parameters).  Deterministic for
    fixed inputs.
    """
    # Python floats, so that far from unit weights the products below
    # overflow to inf or NaN quietly (numpy scalars would warn) and those
    # grid points drop out
    rho = float(p.b) / float(p.a)
    beta = 1.0 / float(p.b_tilde)
    mu = beta - 1.0
    q = rho * beta
    s = rho * mu

    def curve(w: float) -> tuple[float, float, float]:
        """``(A, z, H)`` at w."""
        r = rho * (w + mu * w * w)
        R = r * r
        e = r - s * R
        A = -1.0 + q * (q + s * w) + s * e
        B = 1.0 - w + e * (rho + s * w) - q * s * R
        z = -B / A if A else math.nan
        return A, z, z * (1.0 - z) - R

    def h(w: float) -> float:
        return curve(w)[2]

    grid = [_W_FLOOR ** (1.0 - i / (_W_POINTS - 1)) for i in range(_W_POINTS)]
    walk = [(w, *curve(w)) for w in grid]
    seeds: list[tuple[float, float]] = []  # (z, w)
    for (w0, a0, _, h0), (w1, a1, _, h1) in zip(walk, walk[1:]):
        if a0 * a1 > 0.0 and h0 * h1 < 0.0:
            try:
                w = bracketed_root(h, w0, w1)
            except ValueError:
                continue
            seeds.append((curve(w)[1], w))
    # local minima of |H| catch the near-double roots the sign test cannot
    # see: a flip pair close to the slice puts two roots into one interval
    ah = [math.inf, *(abs(x[3]) for x in walk), math.inf]
    for (w, _, z, _), left, mid, right in zip(walk, ah, ah[1:], ah[2:]):
        if mid < _NEAR_MISS and not left < mid and not right < mid:
            seeds.append((z, w))

    scale = p.alpha * p.b  # z = scale v1, w = scale v4
    lift = p.b / p.alpha**3  # v2 = lift psi(w), v3 = lift psi(z)
    candidates: list[FerroCandidate] = []
    for z, w in seeds:
        v = (z / scale, lift * (w + mu * w * w), lift * (z + mu * z * z), w / scale)
        if not (z < 1.0 and all(0.0 < x < math.inf for x in v)):
            continue
        cand = _polish(p, v)
        if cand is not None:
            candidates.append(cand if cand.u.u1 > cand.u.u4 else _mirror(cand))
    return [m for c in _dedup(candidates) for m in (c, _mirror(c))]
