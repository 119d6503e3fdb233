"""Symmetry-broken (ferromagnetic) fixed points of the branch recurrence.

In the square-root variables ``v_i = sqrt(u_i)`` a fixed point satisfies

    v1 = alpha (b v1^2 + v2^2 / b)        v2 = (b v3^2 + v4^2 / b) / alpha
    v3 = (v1^2 / b + b v2^2) / alpha      v4 = alpha (v3^2 / b + b v4^2)

and, off the symmetric slice, the diagonal sums obey
``v1 + v4 = ferro_constraint(v2 + v3)``.  Writing ``C = v2 + v3``, the first
equation pins ``v2`` as a function of ``v1`` (a square root with a bounded
admissible range), the constraint pins ``v4 = ferro_constraint(C) - v1``, and
``v3 = C - v2``; what remains of the second equation is a quartic in ``v1``
for each C.  The solver writes that quartic out and finds its roots on a whole
grid of C over the admissible ray at once, closes the system on the third
equation by a sign-scan and a bracketed root-find in C, polishes every
candidate with Newton steps on the full system, and accepts only states whose
four-component residual is at machine scale.

Candidates come in global-spin-flip pairs (u1,u2,u3,u4) <-> (u4,u3,u2,u1);
both members appear at the same C (the flip swaps v1 and v4) and both are
returned.  Candidates that collapse onto the symmetric slice are dropped --
they belong to the fixed-point analysis there, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoltzmannParams,
    DomainError,
    StateVector,
    bracketed_root,
    ferro_constraint,
    ferro_residual,
    recurrence_residual,
    symmetric_residual,
)

__all__ = [
    "FerroCandidate",
    "closure_residual",
    "solve_ferro_fixed_points",
    "v2_from_v1",
]

FULL_RESIDUAL_TOL = 1e-9
_COMPONENT_FLOOR = 1e-12
_NEAR_SYMMETRIC_TOL = 1e-3
_C_POINTS = 512
_PROBE_FRACS = np.array([0.25, 0.5, 0.75])
_NEWTON_STEPS = 50


@dataclass(frozen=True)
class FerroCandidate:
    """One symmetry-broken fixed point: the diagonal sum C = v2+v3 it was
    found at, the square-root state, the weight state, and its residual."""

    C: float
    v: tuple[float, float, float, float]
    u: StateVector
    full_residual: float


def v2_from_v1(p: BoltzmannParams, v1: float):
    """Second component forced by the first stationarity equation.

    ``sqrt(b (v1/alpha - b v1^2))``; None when the radicand is negative, i.e.
    v1 > 1/(alpha b), where no fixed point can have its first component.
    """
    rad = p.b * (v1 / p.alpha - p.b * v1 * v1)
    if rad < 0.0:
        return None
    return math.sqrt(rad)


def _assemble(p: BoltzmannParams, C: float, v1: float):
    """(v1, v2, v3, v4) from the two eliminations, or None if inadmissible."""
    v2 = v2_from_v1(p, v1)
    if v2 is None:
        return None
    s14 = ferro_constraint(p, C)
    if s14 <= 0.0:
        return None
    return (v1, v2, C - v2, s14 - v1)


def closure_residual(p: BoltzmannParams, C: float, v1: float) -> float:
    """Residual of the second stationarity equation after the eliminations.

    For fixed admissible C its roots in v1 are exactly the admissible roots of
    the underlying quartic.  Raises for (C, v1) outside the construction's
    domain (negative radicand, nonpositive constraint value).
    """
    if not (C > 0.0 and v1 > 0.0):
        raise DomainError("C and v1 must be positive")
    v = _assemble(p, C, v1)
    if v is None:
        raise DomainError("inadmissible (C, v1): no state satisfies the eliminations")
    _, v2, v3, v4 = v
    return v2 - (p.b * v3 * v3 + v4 * v4 / p.b) / p.alpha


def _third_equation_residual(p: BoltzmannParams, C, v1):
    """Residual of the third stationarity equation on the state the
    eliminations assemble from (C, v1); accepts arrays (NaN propagates)."""
    v2 = np.sqrt(p.b * (v1 / p.alpha - p.b * v1 * v1))
    return (C - v2) - (v1 * v1 / p.b + p.b * v2 * v2) / p.alpha


def _stationarity(p: BoltzmannParams, v: np.ndarray) -> np.ndarray:
    v1, v2, v3, v4 = v
    a = p.alpha
    b = p.b
    return np.array(
        [
            v1 - a * (b * v1 * v1 + v2 * v2 / b),
            v2 - (b * v3 * v3 + v4 * v4 / b) / a,
            v3 - (v1 * v1 / b + b * v2 * v2) / a,
            v4 - a * (v3 * v3 / b + b * v4 * v4),
        ]
    )


def _stationarity_jac(p: BoltzmannParams, v: np.ndarray) -> np.ndarray:
    v1, v2, v3, v4 = v
    a = p.alpha
    b = p.b
    return np.array(
        [
            [1.0 - 2.0 * a * b * v1, -2.0 * a * v2 / b, 0.0, 0.0],
            [0.0, 1.0, -2.0 * b * v3 / a, -2.0 * v4 / (a * b)],
            [-2.0 * v1 / (a * b), -2.0 * b * v2 / a, 1.0, 0.0],
            [0.0, 0.0, -2.0 * a * v3 / b, 1.0 - 2.0 * a * b * v4],
        ]
    )


def _c_domain(p: BoltzmannParams) -> tuple[float, float]:
    """Admissible C ray: where the ferro constraint is positive, capped by an
    upper bound on v2+v3 that any fixed point must respect (v2 <= alpha/b and
    v3 <= alpha/b + 1/(alpha b)^3, both forced by positivity)."""
    alpha = p.alpha
    b = p.b
    bound = 2.0 * alpha / b + (alpha * b) ** -3
    hi = max(1.05 * bound, 10.0 * max(1.0, alpha * b))
    if b < 1.0:
        pole = alpha * b / (1.0 / (b * b) - b * b)
        hi = min(hi, pole * (1.0 - 1e-9))
    return hi * 1e-10, hi


def _inner_roots(p: BoltzmannParams, C: np.ndarray) -> np.ndarray:
    """All v1 roots of the closure residual at each C of the array ``C``.

    With ``K = alpha + 2 b C``, ``R(v1) = b (v1/alpha - b v1^2)`` (so that
    ``v2^2 = R``) and ``P(v1) = b C^2 + b R(v1) + (s14 - v1)^2 / b``, the
    closure residual is ``(K v2 - P) / alpha``; its roots are the roots of the
    quartic ``P^2 = K^2 R`` with ``P >= 0``.  The quartic is solved for every C
    at once from companion matrices, in ``w = v_hi / v1`` so that its leading
    coefficient ``P(0)^2`` never vanishes (at ``b == 1`` the quartic in v1
    drops to a quadratic).  Returns an ``(len(C), 4)`` array holding, per
    row, the roots inside ``(v_hi 1e-9, v_hi (1 - 1e-9))`` in ascending order,
    padded with NaN.
    """
    b, alpha = p.b, p.alpha
    # ferro_constraint, positive on the admissible ray
    s14 = (1.0 + (b / alpha) * C) / (alpha * b + (b * b - 1.0 / (b * b)) * C)
    v_hi = np.minimum(1.0 / (alpha * b), s14)
    k2 = (alpha + 2.0 * b * C) ** 2
    # P and R as polynomials in t = v1 / v_hi
    p2 = (1.0 / b - b**3) * v_hi * v_hi
    p1 = (b * b / alpha - 2.0 * s14 / b) * v_hi
    p0 = b * C * C + s14 * s14 / b
    r2 = -b * b * v_hi * v_hi
    r1 = (b / alpha) * v_hi
    # P^2 - K^2 R, coefficients of t^4 .. t^0 divided by p0^2; read in
    # reverse they are the monic quartic in w = 1/t
    q3 = (2.0 * p1 * p0 - k2 * r1) / (p0 * p0)
    q2 = (p1 * p1 + 2.0 * p2 * p0 - k2 * r2) / (p0 * p0)
    q1 = 2.0 * p2 * p1 / (p0 * p0)
    q0 = p2 * p2 / (p0 * p0)
    companion = np.zeros((len(C), 4, 4))
    companion[:, 0, :] = -np.stack([q3, q2, q1, q0], axis=1)
    companion[:, 1, 0] = companion[:, 2, 1] = companion[:, 3, 2] = 1.0
    w = np.linalg.eigvals(companion)
    with np.errstate(divide="ignore"):
        t = 1.0 / np.where(w.imag == 0.0, w.real, np.nan)
    t[~((t > 1e-9) & (t < 1.0 - 1e-9))] = np.nan
    t[((p2[:, None] * t + p1[:, None]) * t + p0[:, None]) < 0.0] = np.nan
    return np.sort(t, axis=1) * v_hi[:, None]


def _nearest_inner_root(p: BoltzmannParams, C: float, v_seed: float):
    roots = _inner_roots(p, np.array([C]))[0]
    roots = roots[~np.isnan(roots)]
    if not len(roots):
        return None
    return float(roots[np.argmin(np.abs(roots - v_seed))])


def _polish(p: BoltzmannParams, v_seed) -> FerroCandidate | None:
    """Newton steps on the full four-equation system from ``v_seed``; the
    residual checks below, not the iteration, decide acceptance."""
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
    except DomainError:
        return None
    if min(u.components) < _COMPONENT_FLOOR * u.max_norm():
        return None
    res = recurrence_residual(p, u)
    if res > FULL_RESIDUAL_TOL:
        return None
    if symmetric_residual(u) <= _NEAR_SYMMETRIC_TOL:
        return None
    if ferro_residual(p, u) > FULL_RESIDUAL_TOL:
        return None
    return FerroCandidate(C=float(v[1] + v[2]), v=tuple(float(x) for x in v), u=u, full_residual=res)


def _dedup(cands: list[FerroCandidate]) -> list[FerroCandidate]:
    kept: list[FerroCandidate] = []
    for c in sorted(cands, key=lambda c: c.C):
        nc = [x / c.u.max_norm() for x in c.u.components]
        dup = False
        for k in kept:
            nk = [x / k.u.max_norm() for x in k.u.components]
            if max(abs(a - b) for a, b in zip(nc, nk)) <= 1e-6:
                dup = True
                break
        if not dup:
            kept.append(c)
    return kept


def solve_ferro_fixed_points(p: BoltzmannParams) -> list[FerroCandidate]:
    """All symmetry-broken fixed points at these parameters (possibly none).

    Two-level search: a geometric C grid over the admissible ray collects the
    quartic branches (inner roots in v1, sorted), the signed third-equation
    residual is followed along each branch, its sign changes are refined by a
    bracketing root-find in C, and every resulting seed -- plus the local
    |residual| minima, to survive branch-count changes -- is polished on the
    full four-equation system.  An empty list is a legitimate outcome (no
    ferromagnetic order at these parameters).  Deterministic for fixed inputs.
    """
    c_lo, c_hi = _c_domain(p)
    grid = np.geomspace(c_lo, c_hi, _C_POINTS)
    roots = _inner_roots(p, grid)
    residuals = _third_equation_residual(p, grid[:, None], roots)
    counts = np.count_nonzero(~np.isnan(roots), axis=1)
    # where the branch count changes inside an interval, probe a refinement
    changes = np.nonzero((counts[:-1] == 0) | (counts[:-1] != counts[1:]))[0]
    probe_c = grid[changes, None] * (grid[changes + 1] / grid[changes])[:, None] ** _PROBE_FRACS
    probe_roots = _inner_roots(p, probe_c.ravel()).reshape(len(changes), len(_PROBE_FRACS), 4)
    probes = dict(zip(changes.tolist(), zip(probe_c, probe_roots)))

    seeds: list[tuple[float, float]] = []  # (C, v1)
    for i in range(len(grid) - 1):
        if i in probes:
            for c_mid, row in zip(*probes[i]):
                seeds.extend((float(c_mid), float(r)) for r in row[~np.isnan(row)])
            continue
        for k in range(counts[i]):
            r0, r1 = residuals[i, k], residuals[i + 1, k]
            if r0 == 0.0:
                seeds.append((float(grid[i]), float(roots[i, k])))
            elif r0 * r1 < 0.0:
                v_track = float(roots[i, k])

                def branch_res(C: float, _v=v_track) -> float:
                    v1 = _nearest_inner_root(p, C, _v)
                    if v1 is None:
                        return math.nan
                    return float(_third_equation_residual(p, C, v1))

                try:
                    c_star = bracketed_root(branch_res, grid[i], grid[i + 1], rtol=1e-14)
                except ValueError:
                    continue
                v_star = _nearest_inner_root(p, c_star, v_track)
                if v_star is not None:
                    seeds.append((c_star, v_star))
            else:
                # near-miss points are kept as polish seeds: they survive
                # tangencies and branch pairings the sign test cannot see
                if abs(r0) < 1e-2 and abs(r0) <= abs(r1):
                    seeds.append((float(grid[i]), float(roots[i, k])))

    candidates: list[FerroCandidate] = []
    for C, v1 in seeds:
        v = _assemble(p, C, v1)
        if v is None or any(x <= 0.0 for x in v):
            continue
        cand = _polish(p, v)
        if cand is not None:
            candidates.append(cand)
    # complete each candidate with its global-spin-flip partner
    # (u1,u2,u3,u4) -> (u4,u3,u2,u1), an exact symmetry of the map
    for cand in list(candidates):
        flipped = _polish(p, cand.v[::-1])
        if flipped is not None:
            candidates.append(flipped)
    return _dedup(candidates)
