"""Partition functions: recurrence, exact enumeration, and the periodic form.

The depth-n tree is rooted with two branches; every vertex has two children
down to generation n, so |V_n| = 2^(n+1) - 1.  Interactions are parent-child
bonds and same-branch vertex/grandchild pairs.  The partition function is
assembled from branch weights w(s0, s1): the weight of one branch whose top
bond carries spins (s0, s1), including that bond, all interactions inside the
branch, and the grandparent couplings from s0 into the branch.  Summing the
two independent branches for each root spin gives

    Z_n = (u1 + u2)^2 + (u3 + u4)^2,

with the component order (+,+), (+,-), (-,+), (-,-).  A depth-1 branch is the
bare top bond, u = (a, 1/a, 1/a, a) -- the free boundary condition -- and one
extra generation is exactly one application of ``recurrence_step``.  The exact
enumeration here certifies that convention end to end.
"""

import collections
import functools
import math

from .core import (
    BoltzmannParams,
    Couplings,
    DomainError,
    ParameterRangeError,
    StateVector,
    derive_params,
    normalize,
    ratio_map,
    recurrence_step,
)
from .symmetric import lift_two_cycle

__all__ = [
    "enumerate_partition",
    "free_energy_density",
    "initial_branch_weights",
    "partition_recurrence",
    "partition_recurrence_log",
    "periodic_partition",
]

_MAX_ENUM_DEPTH = 3  # 2^15 spins = 32768 configurations
_MAX_SITE_DEPTH = 1022  # 2^1024 - 1 sites round up to inf as a double


def tree_vertex_count(n: int) -> int:
    """|V_n| = 2^(n+1) - 1 vertices for a depth-n rooted binary tree."""
    return 2 ** (n + 1) - 1


def initial_branch_weights(p: BoltzmannParams) -> StateVector:
    """Depth-1 branch weights: the bare top bond, free boundary."""
    return StateVector(p.a, 1.0 / p.a, 1.0 / p.a, p.a)


def _close(u: StateVector) -> float:
    try:
        return (u.u1 + u.u2) ** 2 + (u.u3 + u.u4) ** 2
    except OverflowError:  # float ** raises where * would give inf
        return math.inf


def partition_recurrence(p: BoltzmannParams, n: int) -> tuple[float, StateVector]:
    """(Z_n, branch weights at depth n) by direct recurrence.

    Raises on overflow; use :func:`partition_recurrence_log` for depths where
    the raw weights leave the floating range.
    """
    if n < 1:
        raise DomainError("depth n must be >= 1")
    u = initial_branch_weights(p)
    try:
        for _ in range(n - 1):
            u = recurrence_step(p, u)
    except ParameterRangeError as exc:
        raise ParameterRangeError(
            f"{exc}; use partition_recurrence_log (--log on the command line) for this depth"
        ) from exc
    z = _close(u)
    if not math.isfinite(z):
        raise ParameterRangeError("Z overflowed; use partition_recurrence_log (--log on the command line)")
    return z, u


def partition_recurrence_log(p: BoltzmannParams, n: int) -> tuple[float, StateVector, float]:
    """(log Z_n, unit-max-norm branch weights, accumulated log scale).

    Tracks the weight direction and a separate log magnitude, so any depth the
    doubling of the exponent allows is reachable; past that, raises
    ``ParameterRangeError``.  The raw weights are the normalised ones times
    exp(log_scale).
    """
    if n < 1:
        raise DomainError("depth n must be >= 1")
    u = initial_branch_weights(p)
    log_scale = math.log(u.max_norm())
    for _ in range(n - 1):
        u = recurrence_step(p, normalize(u))
        log_scale = 2.0 * log_scale + math.log(u.max_norm())
    u = normalize(u)
    log_z = 2.0 * log_scale + math.log(_close(u))
    if not math.isfinite(log_z):
        raise ParameterRangeError(f"log Z overflowed at depth {n}")
    return log_z, u, log_scale


@functools.lru_cache(maxsize=None)
def _bond_sum_counts(n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """``((S_nn, S_nnn), count)`` for each pair of bond sums at depth n."""
    size = tree_vertex_count(n)
    spins = [0] * size
    counts: collections.Counter[tuple[int, int]] = collections.Counter()

    def walk(v: int, s_nn: int, s_nnn: int) -> None:
        # spins[:v] are set, and s_nn, s_nnn sum their bonds
        if v == size:
            counts[s_nn, s_nnn] += 1
            return
        i, g = (v - 1) // 2, (v - 3) // 4  # heap order: parent, grandparent
        for s in (1, -1):
            spins[v] = s
            nn = s * spins[i] if v >= 1 else 0
            nnn = s * spins[g] if v >= 3 else 0
            walk(v + 1, s_nn + nn, s_nnn + nnn)

    walk(0, 0, 0)
    return tuple(counts.items())


def enumerate_partition(c: Couplings, n: int) -> float:
    """Exact partition function by summation over all spin configurations.

    Ground truth for depths 1..3 (at most 2^15 configurations).  A
    configuration's Boltzmann weight depends only on its two integer bond
    sums, S_nn over the parent-child bonds and S_nnn over the grandparent
    pairs.  So all configurations are walked once per depth and process,
    setting the spins one vertex at a time in heap order (each new vertex
    adds its bond to its parent and, from the second generation on, to its
    grandparent), and counted in exact integers per pair of sums: 111 pairs
    at depth 3.  Z is then the compensated (error-free) sum of ``count *
    exp(beta (j1 S_nn + j2 S_nnn))`` over the pairs; a term that overflows
    makes Z infinite.
    """
    if not 1 <= n <= _MAX_ENUM_DEPTH:
        raise DomainError(f"enumeration supports 1 <= n <= {_MAX_ENUM_DEPTH}")
    beta = c.beta
    try:
        return math.fsum(
            count * math.exp(beta * (c.j1 * s_nn + c.j2 * s_nnn))
            for (s_nn, s_nnn), count in _bond_sum_counts(n)
        )
    except OverflowError:
        return math.inf


def periodic_partition(p: BoltzmannParams, y: float, n: int) -> float:
    """Partition-function value along the period-two orbit with ratio ``y``.

    Closed form: the orbit alternates between the lifted states of ``y`` and
    of ``ratio_map(p, y)``, and the value depends on n only through parity
    (even depths use ``y``, odd depths its partner).  ``y`` must satisfy the
    two-generation fixed-point condition; at the degenerate boundary the two
    parities coincide.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    return _close(lift_two_cycle(p, y if n % 2 == 0 else ratio_map(p, y)))


def free_energy_density(c: Couplings, n: int) -> float:
    """Free energy per site, -log(Z_n) * T / |V_n|, via the log recurrence."""
    return _free_energy_and_log_z(c, n)[0]


def _free_energy_and_log_z(c: Couplings, n: int) -> tuple[float, float]:
    # one log recurrence for callers that report log Z_n as well; the
    # recurrence checks n >= 1
    if n > _MAX_SITE_DEPTH:
        raise ParameterRangeError(f"depth {n}: the site count 2^{n + 1} - 1 exceeds the float range")
    log_z, _, _ = partition_recurrence_log(derive_params(c), n)
    return -c.temperature * log_z / tree_vertex_count(n), log_z
