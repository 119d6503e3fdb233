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

import math
from typing import NamedTuple

__all__ = [
    "BoltzmannParams",
    "Couplings",
    "DomainError",
    "ParameterRangeError",
    "StateVector",
    "derive_params",
    "ferro_constraint",
    "ferro_residual",
    "normalize",
    "periodic_state",
    "ratio_map",
    "ratio_map_deriv",
    "recurrence_residual",
    "recurrence_step",
    "symmetric_residual",
]

# Bond weights are kept inside [1e-150, 1e150] so that one recurrence step
# from a unit-normalised state can never overflow a double.
_WEIGHT_FLOOR = 1e-150
_WEIGHT_CEIL = 1e150


def _is_finite(x) -> bool:
    # an int too large for a double is not finite either
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


class ParameterRangeError(ValueError):
    """Parameters would leave the supported floating-point range."""


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


# The records are named tuples.  A NamedTuple class may not define __new__,
# so a record that checks its arguments keeps its fields in a base class.
class _CouplingsFields(NamedTuple):
    j1: float
    j2: float
    temperature: float


class Couplings(_CouplingsFields):
    """Physical couplings: bond strength ``j1``, same-branch second-generation
    strength ``j2``, and the temperature (all in the same energy units)."""

    __slots__ = ()

    def __new__(cls, j1: float, j2: float, temperature: float) -> "Couplings":
        if not (_is_finite(j1) and _is_finite(j2)):
            raise ParameterRangeError("couplings must be finite")
        if not (_is_finite(temperature) and temperature > 0.0):
            raise ParameterRangeError("temperature must be positive and finite")
        return super().__new__(cls, j1, j2, temperature)

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


class _BoltzmannParamsFields(NamedTuple):
    a: float
    b: float


class BoltzmannParams(_BoltzmannParamsFields):
    """Bond weights ``a = exp(j1*beta)`` and ``b = exp(j2*beta)``.

    ``alpha = sqrt(a)`` is the natural weight in the square-root variables
    ``v_i = sqrt(u_i)``; ``b_tilde = b**4`` controls how many fixed points the
    reduced map has.  Both are computed on each read.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float) -> "BoltzmannParams":
        for name, w in (("a", a), ("b", b)):
            if not (_is_finite(w) and _WEIGHT_FLOOR <= w <= _WEIGHT_CEIL):
                raise ParameterRangeError(
                    f"weight {name}={w!r} outside [{_WEIGHT_FLOOR:g}, {_WEIGHT_CEIL:g}]"
                )
        try:
            b_tilde = b**4
        except OverflowError:
            b_tilde = math.inf
        if not (_WEIGHT_FLOOR <= b_tilde <= _WEIGHT_CEIL):
            raise ParameterRangeError("b**4 outside the supported range")
        return super().__new__(cls, a, b)

    @property
    def alpha(self) -> float:
        return math.sqrt(self.a)

    @property
    def b_tilde(self) -> float:
        return self.b**4


class _StateVectorFields(NamedTuple):
    u1: float
    u2: float
    u3: float
    u4: float


class StateVector(_StateVectorFields):
    """Strictly positive branch-weight vector.

    Component ``u_i`` corresponds to the top-spin pair ``(+,+), (+,-), (-,+),
    (-,-)`` in order.
    """

    __slots__ = ()

    def __new__(cls, u1: float, u2: float, u3: float, u4: float) -> "StateVector":
        for name, v in (("u1", u1), ("u2", u2), ("u3", u3), ("u4", u4)):
            if not (_is_finite(v) and v > 0.0):
                raise DomainError(f"state component {name}={v!r} must be finite and > 0")
        return super().__new__(cls, u1, u2, u3, u4)

    def max_norm(self) -> float:
        return max(self)


def derive_params(c: Couplings) -> BoltzmannParams:
    """Bond weights for the given couplings; the record checks their range."""
    beta = c.beta
    try:
        a, b = math.exp(c.j1 * beta), math.exp(c.j2 * beta)
    except OverflowError as exc:
        raise ParameterRangeError("a bond weight exp(j*beta) overflows a double") from exc
    return BoltzmannParams(a, b)


def recurrence_step(p: BoltzmannParams, u: StateVector) -> StateVector:
    """One tree generation applied to the branch weights.

    Homogeneous of degree two: scaling the input by ``lam`` scales the output
    by ``lam**2``.  The symmetric slice is exactly invariant (the additions
    below commute, so ``u1' == u4'`` and ``u2' == u3'`` hold bitwise there).
    A component that overflows, or underflows to zero, raises
    ``ParameterRangeError``.
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
        if not 0.0 < w < math.inf:
            raise ParameterRangeError(f"recurrence left the double range in component u{i}")
    return StateVector(w1, w2, w3, w4)


def _scaled(u: StateVector, m: float) -> StateVector:
    try:
        return StateVector(u.u1 / m, u.u2 / m, u.u3 / m, u.u4 / m)
    except DomainError as exc:
        raise ParameterRangeError(f"rescaling left the double range: {exc}") from exc


def normalize(u: StateVector) -> StateVector:
    """Rescale so the largest component is exactly 1; a component that
    underflows to zero raises ``ParameterRangeError``."""
    return _scaled(u, u.max_norm())


def periodic_state(p: BoltzmannParams, s: StateVector, period: int = 1) -> StateVector:
    """The state ``u`` on the ray through ``s`` with ``F^period(u) = u``.

    ``s`` must point along a periodic direction of the recurrence F.  Degree-2
    homogeneity, ``F^n(s/c) = F^n(s) / c^(2^n)``, fixes the scale:
    ``c^(2^n - 1) = |F^n(s)| / |s|``.  The steps are normalised in between,
    so with ``m_i`` the max-norm of step i, ``|F^n(s)|`` is the product of the
    ``m_i^(2^(n-i))``, and ``c`` is taken factor by factor without forming a
    power of a norm.  Raises ``ParameterRangeError`` where a step or the
    rescaled state leaves the double range.
    """
    if period < 1:
        raise DomainError("period must be at least 1")
    denom = 2**period - 1
    scale = 1.0
    v = s
    for i in range(1, period + 1):
        w = recurrence_step(p, v)
        scale *= w.max_norm() ** (2.0 ** (period - i) / denom)
        if i < period:
            v = normalize(w)
    return _scaled(s, scale / s.max_norm() ** (1.0 / denom))


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
    """Closed-form derivative of :func:`ratio_map`; sign equals sign(b**4 - 1).
    As ``2 g(x) (b^4 - 1)/((b^2 + x)(1 + b^2 x))`` it is finite where g is."""
    b2 = p.b * p.b
    return 2.0 * ratio_map(p, x) * ((b2 * b2 - 1.0) / (b2 + x)) / (1.0 + b2 * x)


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
    v1, v2, v3, v4 = map(math.sqrt, u)
    try:
        target = ferro_constraint(p, v2 + v3)
    except DomainError:  # at the pole
        return math.inf
    if target < 0.0:  # past the pole: the numerator is at least 1
        return math.inf
    return abs((v1 + v4) - target) / math.sqrt(u.max_norm())


def recurrence_residual(p: BoltzmannParams, u: StateVector) -> float:
    """Max-norm residual of ``F(u) = u`` relative to the largest component."""
    w = recurrence_step(p, u)
    return max(abs(wi - ui) for wi, ui in zip(w, u)) / u.max_norm()


def bracketed_root(f, lo: float, hi: float) -> float:
    """Root of ``f`` inside the positive bracket ``0 < lo < hi``, across which
    ``f`` changes sign; raises ``ValueError`` when it does not, or when ``f``
    returns NaN.

    Plain bisection: at the geometric midpoint while the bracket spans more
    than a factor of two, so brackets over many decades close as fast as
    narrow ones, and at the arithmetic midpoint after that.  Stops once the
    bracket is within 1e-15 relative and returns the end with the smaller
    ``|f|``.
    """
    lo, hi = float(lo), float(hi)
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not f_lo * f_hi < 0.0:
        raise ValueError("f must change sign over the bracket")
    while hi - lo > 1e-15 * hi:
        x = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if not lo < x < hi:
            break
        fx = f(x)
        if fx == 0.0:
            return x
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    return lo if abs(f_lo) <= abs(f_hi) else hi
