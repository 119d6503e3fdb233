"""Model parameters, branch weights, and the generation recurrence map.

Ising spins sit on a rooted binary tree: a root with two branches, and two
children under every vertex below.  Spins interact along parent-child bonds
(coupling ``j1``) and along same-branch vertex/grandchild pairs (coupling
``j2``).  The equilibrium state of a depth-n tree is carried by four branch
weights -- partial partition functions of one branch, resolved by its top two
spins in the order ``(+,+), (+,-), (-,+), (-,-)``.  Growing the tree by one
generation applies :func:`recurrence_step`, a map homogeneous of degree two,
so only the direction of the weight vector matters for phase structure.

Two invariant sets organise the fixed points:

* the *symmetric slice* ``u1 == u4 and u2 == u3`` (states invariant under a
  global spin flip), where the map closes over the ratio ``x = u1/u2`` and
  reduces to the scalar :func:`ratio_map`;
* the *ferro surface*, where the diagonal root-sums ``sqrt(u1)+sqrt(u4)`` and
  ``sqrt(u2)+sqrt(u3)`` are linked by the fractional-linear map
  :func:`ferro_constraint`; fixed points there break the flip symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoltzmannParams",
    "Couplings",
    "DomainError",
    "ParameterRangeError",
    "StateVector",
    "bracketed_root",
    "derive_params",
    "ferro_constraint",
    "ferro_residual",
    "ratio_map",
    "ratio_map2",
    "ratio_map_deriv",
    "recurrence_residual",
    "recurrence_step",
    "symmetric_residual",
]

# Bond weights are kept inside [1e-150, 1e150] so that one recurrence step
# from a unit-normalised state can never overflow a double.
_WEIGHT_FLOOR = 1e-150
_WEIGHT_CEIL = 1e150
_MAX_LOG_WEIGHT = math.log(_WEIGHT_CEIL)


class ParameterRangeError(ValueError):
    """Parameters would leave the supported floating-point range."""


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


@dataclass(frozen=True)
class Couplings:
    """Physical couplings: bond strength ``j1``, same-branch second-generation
    strength ``j2``, and the temperature (all in the same energy units)."""

    j1: float
    j2: float
    temperature: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.j1) and math.isfinite(self.j2)):
            raise ParameterRangeError("couplings must be finite")
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ParameterRangeError("temperature must be positive and finite")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


@dataclass(frozen=True)
class BoltzmannParams:
    """Bond weights ``a = exp(j1*beta)``, ``b = exp(j2*beta)`` and the derived
    combinations the analysis runs on.

    ``alpha = sqrt(a)`` is the natural weight in the square-root variables
    ``v_i = sqrt(u_i)``; ``b_tilde = b**4`` controls how many fixed points the
    reduced map has, and ``a_tilde = 1/(a**2 b**6)`` is the level the reduced
    fixed-point condition is solved at.
    """

    a: float
    b: float
    alpha: float
    a_tilde: float
    b_tilde: float

    @classmethod
    def from_weights(cls, a: float, b: float) -> "BoltzmannParams":
        for name, w in (("a", a), ("b", b)):
            if not (math.isfinite(w) and _WEIGHT_FLOOR <= w <= _WEIGHT_CEIL):
                raise ParameterRangeError(
                    f"weight {name}={w!r} outside [{_WEIGHT_FLOOR:g}, {_WEIGHT_CEIL:g}]"
                )
        b_tilde = b**4
        if not (_WEIGHT_FLOOR <= b_tilde <= _WEIGHT_CEIL):
            raise ParameterRangeError("b**4 outside the supported range")
        try:
            a_tilde = math.exp(-2.0 * math.log(a) - 6.0 * math.log(b))
        except OverflowError:
            a_tilde = math.inf
        if not (math.isfinite(a_tilde) and a_tilde > 0.0):
            raise ParameterRangeError("1/(a^2 b^6) not representable")
        return cls(a=a, b=b, alpha=math.sqrt(a), a_tilde=a_tilde, b_tilde=b_tilde)


@dataclass(frozen=True)
class StateVector:
    """Strictly positive branch-weight vector.

    Component ``u_i`` corresponds to the top-spin pair ``(+,+), (+,-), (-,+),
    (-,-)`` in order.  The square-root variables used by the ferro analysis
    are exposed through :attr:`sqrts` rather than stored.
    """

    u1: float
    u2: float
    u3: float
    u4: float

    def __post_init__(self) -> None:
        for name, v in zip(("u1", "u2", "u3", "u4"), self.components):
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"state component {name}={v!r} must be finite and > 0")

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.u1, self.u2, self.u3, self.u4)

    @property
    def sqrts(self) -> tuple[float, float, float, float]:
        return tuple(math.sqrt(v) for v in self.components)

    def max_norm(self) -> float:
        return max(self.components)

    def __iter__(self):
        return iter(self.components)


def derive_params(c: Couplings) -> BoltzmannParams:
    """Bond weights for the given couplings; rejects exponents that overflow."""
    beta = c.beta
    for name, j in (("j1", c.j1), ("j2", c.j2)):
        if abs(j) * beta > _MAX_LOG_WEIGHT:
            raise ParameterRangeError(
                f"exp({name}*beta) outside [{_WEIGHT_FLOOR:g}, {_WEIGHT_CEIL:g}]"
            )
    return BoltzmannParams.from_weights(math.exp(c.j1 * beta), math.exp(c.j2 * beta))


def recurrence_step(p: BoltzmannParams, u: StateVector) -> StateVector:
    """One tree generation applied to the branch weights.

    Homogeneous of degree two: scaling the input by ``lam`` scales the output
    by ``lam**2``.  The symmetric slice is exactly invariant (the additions
    below commute, so ``u1' == u4'`` and ``u2' == u3'`` hold bitwise there).
    """
    a = p.a
    b = p.b
    ainv = 1.0 / a
    binv = 1.0 / b
    t1 = b * u.u1 + binv * u.u2
    t2 = b * u.u3 + binv * u.u4
    t3 = binv * u.u1 + b * u.u2
    t4 = binv * u.u3 + b * u.u4
    w1 = a * (t1 * t1)
    w2 = ainv * (t2 * t2)
    w3 = ainv * (t3 * t3)
    w4 = a * (t4 * t4)
    for i, w in enumerate((w1, w2, w3, w4), start=1):
        if not math.isfinite(w):
            raise ParameterRangeError(f"recurrence overflowed in component u{i}")
    return StateVector(w1, w2, w3, w4)


def ratio_map(p: BoltzmannParams, x):
    """The recurrence restricted to the symmetric slice, in the ratio
    coordinate ``x = u1/u2``.  Accepts scalars or numpy arrays; requires x > 0.

    Its range is the interval between ``a**2/b**4`` and ``a**2*b**4``, so
    iterates stay on a compact positive interval.
    """
    b2 = p.b * p.b
    r = (1.0 + b2 * x) / (b2 + x)
    return (p.a * p.a) * r * r


def ratio_map_deriv(p: BoltzmannParams, x):
    """Closed-form derivative of :func:`ratio_map`; sign equals sign(b**4 - 1)."""
    b2 = p.b * p.b
    den = b2 + x
    return 2.0 * (p.a * p.a) * (b2 * b2 - 1.0) * (1.0 + b2 * x) / (den * den * den)


def ratio_map2(p: BoltzmannParams, x):
    """Two consecutive generations in the ratio coordinate (nondecreasing)."""
    return ratio_map(p, ratio_map(p, x))


def ferro_constraint(p: BoltzmannParams, x: float) -> float:
    """Fractional-linear link between the diagonal root-sums at any fixed
    point off the symmetric slice: ``s14 = ferro_constraint(s23)``.

    For ``b < 1`` the denominator has a positive pole; past it the value is
    negative, meaning the ferro surface is empty in that direction.
    """
    num = 1.0 + (p.b / p.alpha) * x
    den = p.alpha * p.b + (p.b * p.b - 1.0 / (p.b * p.b)) * x
    if den == 0.0:
        raise DomainError("ferro constraint pole: surface empty in this direction")
    return num / den


def symmetric_residual(u: StateVector) -> float:
    """Relative distance from the flip-symmetric slice; 0 iff u1==u4, u2==u3."""
    return max(abs(u.u1 - u.u4), abs(u.u2 - u.u3)) / u.max_norm()


def ferro_residual(p: BoltzmannParams, u: StateVector) -> float:
    """Relative violation of the ferro-surface constraint.

    Normalised by ``sqrt(max component)`` so the value is scale-free at unit
    normalisation.  Returns ``inf`` when the constraint has no positive value
    at this state (at or past the ``b < 1`` pole), i.e. the surface is empty
    in that direction.
    """
    v1, v2, v3, v4 = u.sqrts
    s23 = v2 + v3
    den = p.alpha * p.b + (p.b * p.b - 1.0 / (p.b * p.b)) * s23
    if den <= 0.0:
        return math.inf
    target = (1.0 + (p.b / p.alpha) * s23) / den
    return abs((v1 + v4) - target) / math.sqrt(u.max_norm())


def recurrence_residual(p: BoltzmannParams, u: StateVector) -> float:
    """Max-norm residual of ``F(u) = u`` relative to the largest component."""
    w = recurrence_step(p, u)
    return max(abs(wi - ui) for wi, ui in zip(w, u)) / u.max_norm()


def bracketed_root(f, lo: float, hi: float) -> float:
    """Root of ``f`` inside the positive bracket ``0 < lo < hi``, across which
    ``f`` changes sign; raises ``ValueError`` when it does not, or when ``f``
    returns NaN.

    Geometric bisection while the bracket spans more than a factor of two, so
    brackets over many decades close as fast as narrow ones; Illinois
    false-position steps after that, falling back to a bisection whenever
    three steps in a row fail to halve the bracket.  Stops once the bracket
    is within 1e-15 relative and returns the end with the smaller ``|f|``.
    """
    lo, hi = float(lo), float(hi)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not f_lo * f_hi < 0.0:
        raise ValueError("f must change sign over the bracket")
    # g_lo, g_hi are the end values the Illinois rule scales down
    g_lo, g_hi = f_lo, f_hi
    side = 0  # the end that moved last: -1 lo, +1 hi
    slow = 0
    for _ in range(400):
        width = hi - lo
        if width <= 1e-15 * hi:
            break
        if hi > 2.0 * lo or slow >= 3:
            x = math.sqrt(lo) * math.sqrt(hi)
            slow = 0
        else:
            x = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if fx == 0.0:
            return x
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo, g_lo = x, fx, fx
            if side == -1:
                g_hi *= 0.5
            side = -1
        else:
            hi, f_hi, g_hi = x, fx, fx
            if side == 1:
                g_lo *= 0.5
            side = 1
        slow = slow + 1 if hi - lo > 0.5 * width else 0
    return lo if abs(f_lo) <= abs(f_hi) else hi
