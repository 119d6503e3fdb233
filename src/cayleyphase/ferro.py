"""Symmetry-broken (ferromagnetic) fixed points of the branch recurrence.

In the square-root variables ``v_i = sqrt(u_i)`` a fixed point satisfies

    (1) v1 = alpha (b v1^2 + v2^2 / b)        (2) v2 = (b v3^2 + v4^2 / b) / alpha
    (3) v3 = (v1^2 / b + b v2^2) / alpha      (4) v4 = alpha (v3^2 / b + b v4^2)

Two eliminations are exact: equation 4 substituted into equation 2 gives
``v2 = q(v4)``, and equation 1 substituted into equation 3 gives
``v3 = q(v1)``, with ``q(t) = (b^2/alpha^2) t + ((1/b - b^3)/alpha) t^2``.
In the scaled variables ``z = alpha b v1`` and ``w = alpha b v4``, both in
(0, 1), and with ``rho = b/a``, ``beta = b^-4`` and
``psi(t) = t (1 - t) + beta t^2`` (so that ``q(t) = (b/alpha^3) psi(alpha b
t)``), equation 1 becomes the curve

    z (1 - z) = R,    R = rho^2 psi(w)^2.

``psi`` is computed as ``t ((1 - t) + beta t)``, which keeps ``beta`` apart
from ``1 - t``: where ``b^-4 - 1`` rounds to -1, ``t + (beta - 1) t^2`` gives
0 at t = 1, and this form still gives ``beta``.  Equation 1 minus
equation 4, divided by ``v1 - v4``, leaves, with ``mu = beta - 1``,

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
At low temperature z lies within rounding of 1, so ``1 - z`` is formed as
``(A + B)/A``, with ``s + rho = q`` taken exactly:

    A + B = (q + e) (q + s w) - w - q s R.

Every search is bisection (``core.bracketed_root``): of H across each sign
change on a geometric grid in w, and, where a flip pair close to the slice
puts two roots between neighbouring grid points, of H's slope, whose sign
change at H's extremum splits those two roots into two brackets.

Dividing out ``v1 - v4`` removes the symmetric fixed points from the roots,
so fixed points close to the slice are not masked by them.  Each root gives
the state ``v = (z, lift psi(w), lift psi(z), w)`` (the outer two divided by
``alpha b``, ``lift = b/alpha^3``) with no further iteration.  A state is
accepted only when its four components are positive and the recurrence fixes
each of them to 1e-9 relative to that component.

Candidates come in global-spin-flip pairs (u1,u2,u3,u4) <-> (u4,u3,u2,u1),
which swap z and w.  Each pair is built once, from its root with ``z > w``,
which is its ``u1 > u4`` member; the partner is that member reversed, since
the map commutes with the reversal bit for bit.  A root with ``z == w`` is
no pair's: it lies on the slice, which belongs to the fixed-point analysis
there.  So no cut near the slice is needed, and a pair is listed however
close to it it lies.
"""

import math
import sys
from collections import namedtuple

from .core import (
    BoltzmannParams,
    ParameterRangeError,
    StateVector,
    _computed,
    bracketed_root,
    recurrence_step,
)

__all__ = ["FerroCandidate", "solve_ferro_fixed_points"]

FULL_RESIDUAL_TOL = 1e-9
# the grid in w: 36.5 points a decade (512 points over 1e-14 .. 1), from a
# floor at most 1e-14, below q^2, near which the cold roots sit, and no lower
# than the smallest normal double
_W_PER_DECADE = 36.5
_W_FLOOR_CAP = 1e-14
# the forward-difference step of H's slope, sqrt(eps): the step that balances
# the rounding of H against the truncation of the difference
_STEP = math.sqrt(sys.float_info.epsilon)


class FerroCandidate(namedtuple("FerroCandidate", "C v u full_residual")):
    """One symmetry-broken fixed point: its diagonal sum C = v2+v3, the
    square-root state, the weight state, and its residual."""

    __slots__ = ()


def _accept(p: BoltzmannParams, v: tuple[float, float, float, float]) -> FerroCandidate | None:
    """The candidate at square-root state ``v``, if one generation fixes each
    weight to ``FULL_RESIDUAL_TOL`` of itself; else None."""
    if not all(0.0 < x < math.inf for x in v):
        return None
    try:
        u = _computed("ferro candidate", tuple(x * x for x in v))
        fu = recurrence_step(p, u)
    except ParameterRangeError:
        return None
    # componentwise, so that a small component must be fixed too
    if any(abs(f - x) > FULL_RESIDUAL_TOL * x for f, x in zip(fu, u)):
        return None
    full_residual = max(abs(f - x) for f, x in zip(fu, u)) / u.max_norm()
    return FerroCandidate(C=v[1] + v[2], v=v, u=u, full_residual=full_residual)


def _mirror(c: FerroCandidate) -> FerroCandidate:
    # v2 + v3 == v3 + v2 and F(flip u) == flip F(u) hold bit for bit
    return FerroCandidate(c.C, c.v[::-1], StateVector._make(c.u[::-1]), c.full_residual)


def solve_ferro_fixed_points(p: BoltzmannParams) -> list[FerroCandidate]:
    """All symmetry-broken fixed points at these parameters (possibly none).

    H is evaluated over a geometric grid in w from a floor to 1, 36.5 points
    a decade, where the floor is ``min(1e-14, q^2/16)``: at low temperature
    the roots sit near ``w = q^2/(1 - q rho)``, far below any fixed floor.
    Every sign change of H across a grid interval where A keeps its sign is
    bisected in w (where A changes sign, the sign change is a pole of z, not
    a root).  A flip pair close to the slice can put two roots into one
    interval, which the sign test cannot see: so at each local minimum of
    |H| where H and A keep their signs, the window between the neighbouring
    grid points is split at the extremum of H, found by bisecting H's
    forward difference ``h(w (1 + _STEP)) - h(w)``, and each side of the
    split is bisected where H changes sign across it.  A window whose
    difference keeps its sign is not split.  Each root with
    ``z > w`` is rebuilt as a state and accepted by the one-generation
    check; each state is returned followed by its mirror, in order of C.
    An empty list is a legitimate outcome (no ferromagnetic order at these
    parameters).  Deterministic for fixed inputs.
    """
    # Python floats, so that far from unit weights the products below
    # overflow to inf or NaN quietly (numpy scalars would warn) and those
    # grid points drop out
    b = float(p.b)
    rho = b / float(p.a)
    beta = 1.0 / float(p.b_tilde)
    mu = beta - 1.0
    q = rho * beta
    s = rho * mu
    qs = q * s

    def psi(t: float, one_minus_t: float) -> float:
        return t * (one_minus_t + beta * t)

    def curve(w: float) -> tuple[float, float, float, float]:
        """``(A, H, z, 1 - z)`` at w."""
        sw = s * w
        r = rho * psi(w, 1.0 - w)
        R = r * r
        e = r - s * R
        qsR = qs * R
        A = -1.0 + q * (q + sw) + s * e
        if not A:
            return A, math.nan, math.nan, math.nan
        z = -(1.0 - w + e * (rho + sw) - qsR) / A
        y = ((q + e) * (q + sw) - w - qsR) / A  # (A + B)/A
        return A, z * y - R, z, y

    def h(w: float) -> float:
        return curve(w)[1]

    def slope(w: float) -> float:
        return h(w * (1.0 + _STEP)) - h(w)

    floor = max(min(_W_FLOOR_CAP, q * q / 16.0), sys.float_info.min)
    n = math.ceil(_W_PER_DECADE * -math.log10(floor)) + 1
    walk = [(w, *curve(w)[:2]) for w in (floor ** (1.0 - i / (n - 1)) for i in range(n))]
    brackets = [
        (w0, w1) for (w0, a0, h0), (w1, a1, h1) in zip(walk, walk[1:]) if a0 * a1 > 0.0 and h0 * h1 < 0.0
    ]
    for (w0, a0, h0), (_, a1, h1), (w2, a2, h2) in zip(walk, walk[1:], walk[2:]):
        if abs(h0) > abs(h1) <= abs(h2) and (  # strict on one side: a tie opens one window
            a0 * a1 > 0.0 and a1 * a2 > 0.0 and h0 * h1 > 0.0 and h1 * h2 > 0.0
        ):
            try:
                wx = bracketed_root(slope, w0, w2)
            except ValueError:
                continue
            brackets += [(w0, wx), (wx, w2)]

    scale = p.alpha * b  # z = scale v1, w = scale v4
    lift = b / p.alpha**3  # v2 = lift psi(w), v3 = lift psi(z)
    candidates: list[FerroCandidate] = []
    for lo, hi in brackets:
        try:
            w = bracketed_root(h, lo, hi)
        except ValueError:
            continue
        _, _, z, y = curve(w)
        if not z > w:  # a u1 < u4 member: its pair is built from its other root
            continue
        cand = _accept(p, (z / scale, lift * psi(w, 1.0 - w), lift * psi(z, y), w / scale))
        if cand is not None:
            candidates.append(cand)
    return [m for c in sorted(candidates, key=lambda c: c.C) for m in (c, _mirror(c))]
