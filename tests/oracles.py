"""Closed forms that only the tests need: independent oracles for the slice
basins, the fixed-point window, the double step of the ratio map and the
depth-n tree's layout.  No command calls them, so they live here, not in the
package; each is derived from the paper's formulas, not from the solver it
checks.  ``star_window`` is the exception: it places ``a**2`` on the edges of
the two-cycle window with the package's own closed form.
"""

import bisect
import math
from collections import namedtuple

from cayleyphase import (
    BoltzmannParams,
    DomainError,
    StateVector,
    ratio_map,
    solve_fixed_points,
    solve_two_cycles,
    symmetric_residual,
)
from cayleyphase.partition import tree_vertex_count
from cayleyphase.symmetric import _star_numerator


def ratio_map2(p: BoltzmannParams, x):
    """Two consecutive generations in the ratio coordinate (nondecreasing)."""
    return ratio_map(p, ratio_map(p, x))


def _level(y: float, b_tilde: float) -> float:
    # the fixed-point condition reads level(y) = 1/(a^2 b^6), with y = b^2 x
    r = (1.0 + y) / (b_tilde + y)
    return r * r / y


def multi_root_window(b_tilde: float) -> tuple[float, float] | None:
    """Window of levels ``1/(a^2 b^6)`` with three fixed points; None if b_tilde <= 9.

    Its edges are the level at the critical points, the roots of
    ``y^2 + (3 - b4) y + b4 = 0``, whose discriminant is ``(b4 - 1)(b4 - 9)``.
    """
    if b_tilde <= 9.0:
        return None
    y_hi = 0.5 * ((b_tilde - 3.0) + math.sqrt((b_tilde - 1.0) * (b_tilde - 9.0)))
    y_lo = b_tilde / y_hi  # the product of the roots
    edges = (_level(y_lo, b_tilde), _level(y_hi, b_tilde))
    return (min(edges), max(edges))


def star_window(b: float) -> tuple[float, float] | None:
    """Edges ``(lower, upper)`` in ``a**2`` of the two-cycle window at this b;
    None where it is empty.  ``critical_curve`` gives the same edges in j1, in
    logs; these are the doubles that place ``a**2`` exactly on an edge."""
    num = _star_numerator(b)
    if num is None:
        return None
    plus = num / (8.0 * b**6)
    return 1.0 / plus, plus


def params_at_level(level: float, b: float) -> BoltzmannParams:
    # invert level = 1/(a^2 b^6)
    return BoltzmannParams((level * b**6) ** -0.5, b)


class SymmetricClass(namedtuple("SymmetricClass", "kind target")):
    """Asymptotic class of a symmetric-slice trajectory: the attracting ratio
    and whether the full sequence ("asymptotically-fixed") or only every
    second step ("asymptotically-periodic") converges."""

    __slots__ = ()


def symmetric_attractor_class(p: BoltzmannParams, u0: StateVector) -> SymmetricClass:
    """Asymptotic class of a symmetric-slice start that is not itself periodic.

    Read off the roots, without iterating.  For b >= 1 the ratio map g is
    nondecreasing, and for b < 1 its double step is; under such a map every
    start moves monotonically to the next root of ``g(x) - x`` (of the double
    step's, for b < 1) in the direction of that function's sign.  The sign is
    + below the smallest root and changes at every root except the double
    root of the ``two`` regime.  The roots are the fixed ratios, plus the
    two-cycle ratios when b < 1 and the pair has not merged.  The class is
    asymptotically periodic exactly when the target is a two-cycle ratio; for
    b < 1 the target is then the limit of every second step.
    """
    if symmetric_residual(u0) > 1e-10:
        raise DomainError("start must lie on the symmetric slice")
    x0 = u0.u1 / u0.u2
    fixed = solve_fixed_points(p)
    cycles = solve_two_cycles(p)
    if any(abs(x0 - r) <= 1e-10 * r for r in (*(f.x for f in fixed.roots), *cycles.roots)):
        raise DomainError("start is (numerically) a periodic point; class undefined")

    # the double root of the "two" regime is the one where g' is nearest 1
    double = (
        min(fixed.roots, key=lambda f: abs(f.derivative - 1.0)).x if fixed.regime == "two" else None
    )
    cycle = () if cycles.degenerate else cycles.roots  # empty for b >= 1
    refs = sorted([f.x for f in fixed.roots] + list(cycle))
    k = bisect.bisect(refs, x0)
    rising = sum(r != double for r in refs[:k]) % 2 == 0
    target = refs[k] if rising else refs[k - 1]
    kind = "asymptotically-periodic" if target in cycle else "asymptotically-fixed"
    return SymmetricClass(kind, target)


def tree_edges(n: int) -> list[tuple[int, int]]:
    """Parent-child pairs in heap indexing (children of i are 2i+1, 2i+2)."""
    size = tree_vertex_count(n)
    return [(i, child) for i in range(size) for child in (2 * i + 1, 2 * i + 2) if child < size]


def tree_grandparent_pairs(n: int) -> list[tuple[int, int]]:
    """Same-branch vertex/grandchild pairs (two generations apart)."""
    size = tree_vertex_count(n)
    return [(i, g) for i in range(size) for g in range(4 * i + 3, 4 * i + 7) if g < size]
