"""Exact counts in rational arithmetic, for the tests: Sturm's theorem on
polynomials whose coefficients are exact in the double weights ``a`` and
``b`` (each taken as the ``Fraction`` it is), and the exact sign of the
two-cycle ``q - 4``.  Independent of the solvers they check: nothing here
rounds, bisects or iterates.

A polynomial is a list of coefficients, lowest degree first.
"""

import math
from fractions import Fraction

from cayleyphase import BoltzmannParams


def _trim(f: list) -> list:
    while f and not f[-1]:
        f = f[:-1]
    return f


def _add(*fs: list) -> list:
    out = [Fraction(0)] * max(map(len, fs))
    for f in fs:
        for i, c in enumerate(f):
            out[i] += c
    return _trim(out)


def _mul(f: list, g: list) -> list:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g):
            out[i + j] += c * d
    return _trim(out)


def _primitive(f: list) -> list[int]:
    """``f`` times a positive rational: integers with no common factor."""
    den = math.lcm(*(Fraction(c).denominator for c in f))
    ints = [int(c * den) for c in f]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _negated_remainder(f: list[int], g: list[int]) -> list[int]:
    """``-(f mod g)`` times a positive rational, as primitive integers: each
    step scales ``f`` by ``|lead(g)|``, so no sign is lost."""
    m, sign = abs(g[-1]), 1 if g[-1] > 0 else -1
    f = list(f)
    while len(f) >= len(g):
        c, shift = f[-1], len(f) - len(g)
        f = [m * x for x in f]
        for i, d in enumerate(g):
            f[shift + i] -= sign * c * d
        f = _trim(f[:-1])
    return _primitive([-x for x in f]) if f else []


def _value(f: list, x: Fraction | None):
    """``f(x)`` exactly, or for ``x`` None (+infinity) its leading coefficient."""
    if x is None:
        return f[-1]
    v = Fraction(0)
    for c in reversed(f):
        v = v * x + c
    return v


def sturm_count(f: list, lo: Fraction, hi: Fraction | None) -> int:
    """The number of distinct real roots of ``f`` in the open interval (lo,
    hi); ``hi`` None is +infinity.  ``f(lo)`` must not be 0."""
    if not _value(f, lo):
        raise ValueError("a root at the lower end")
    seq = [_primitive(f)]
    derivative = [i * c for i, c in enumerate(seq[0])][1:]
    if derivative:
        seq.append(_primitive(derivative))
    while len(seq[-1]) > 1:
        r = _negated_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(r)

    def changes(x):
        signs = [v for v in (_value(g, x) for g in seq) if v]
        return sum((s > 0) != (t > 0) for s, t in zip(signs, signs[1:]))

    # Sturm counts the roots in (lo, hi]
    return changes(lo) - changes(hi) - (hi is not None and not _value(f, hi))


def ferro_numerator(p: BoltzmannParams) -> list[Fraction]:
    """The numerator ``-B (A + B) - R A^2`` of ``H(w) = z (1 - z) - R``,
    ``z = -B/A``, in the variables of :mod:`cayleyphase.ferro`: degree 12 in
    w.  On (0, 1) its roots are the ferro fixed points (``z (1 - z) = R >=
    0`` puts z in [0, 1] and psi is positive there), two for each flip pair."""
    a, b = Fraction(p.a), Fraction(p.b)
    rho, beta = b / a, 1 / b**4
    q, s = rho * beta, rho * (beta - 1)
    r = [0, rho, s]  # rho psi(w), psi(w) = w + (beta - 1) w^2
    R = _mul(r, r)
    e = _add(r, [-s * c for c in R])
    A = _add([q * q - 1, q * s], [s * c for c in e])
    B = _add([1, -1], _mul(e, [rho, s]), [-q * s * c for c in R])
    return _add([-c for c in _mul(B, _add(A, B))], [-c for c in _mul(R, _mul(A, A))])


def ferro_count(p: BoltzmannParams) -> int:
    """The number of ferro fixed points (both members of each pair)."""
    return sturm_count(ferro_numerator(p), Fraction(0), Fraction(1))


def slice_count(p: BoltzmannParams) -> int:
    """The number of positive fixed ratios of the slice: roots on (0, inf) of
    ``x^3 + (2B - A B^2) x^2 + (B^2 - 2 A B) x - A``, A = a^2, B = b^2."""
    A, B = Fraction(p.a) ** 2, Fraction(p.b) ** 2
    return sturm_count([-A, B * B - 2 * A * B, 2 * B - A * B * B, 1], Fraction(0), None)


def two_cycle_gap_sign(p: BoltzmannParams) -> int:
    """The sign of ``q - 4``, ``q = (1 - b^4)^2 / (b^4 (1 + b^2 (a^2 + a^-2)
    + b^4))``: two two-cycle ratios for +1, none for -1."""
    A, B = Fraction(p.a) ** 2, Fraction(p.b) ** 2
    b4 = B * B
    gap = (1 - b4) ** 2 - 4 * b4 * (1 + B * (A + 1 / A) + b4)
    return (gap > 0) - (gap < 0)
