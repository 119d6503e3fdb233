import math

import numpy as np
import pytest

from cayleyphase import (
    BoltzmannParams,
    Couplings,
    DomainError,
    ParameterRangeError,
    StateVector,
    derive_params,
    enumerate_partition,
    free_energy_density,
    initial_branch_weights,
    lift_two_cycle,
    normalize,
    partition_recurrence,
    partition_recurrence_log,
    periodic_partition,
    periodic_state,
    ratio_map,
    recurrence_step,
    solve_fixed_points,
    solve_two_cycles,
)
from cayleyphase.partition import _bond_sum_counts, tree_vertex_count

from conftest import TINY_RATIOS
from oracles import star_window, tree_edges, tree_grandparent_pairs


def _all_bond_sums(n):
    """Spins, S_nn and S_nnn of every configuration of the depth-n tree."""
    size = tree_vertex_count(n)
    idx = np.arange(1 << size, dtype=np.uint32)
    spins = np.empty((1 << size, size), dtype=np.int8)
    for v in range(size):
        spins[:, v] = (((idx >> v) & 1) << 1).astype(np.int8) - 1
    s_nn = np.zeros(1 << size, dtype=np.int32)
    for i, j in tree_edges(n):
        s_nn += spins[:, i].astype(np.int32) * spins[:, j]
    s_nnn = np.zeros(1 << size, dtype=np.int32)
    for i, j in tree_grandparent_pairs(n):
        s_nnn += spins[:, i].astype(np.int32) * spins[:, j]
    return spins, s_nn, s_nnn


class TestTreeLayout:
    def test_vertex_counts(self):
        assert [tree_vertex_count(n) for n in (1, 2, 3)] == [3, 7, 15]

    def test_edge_counts(self):
        # a tree has |V| - 1 edges
        for n in (1, 2, 3):
            assert len(tree_edges(n)) == tree_vertex_count(n) - 1

    def test_grandparent_pair_counts(self):
        assert len(tree_grandparent_pairs(1)) == 0
        assert len(tree_grandparent_pairs(2)) == 4
        assert len(tree_grandparent_pairs(3)) == 12


class TestInitialWeights:
    def test_unit(self):
        p = BoltzmannParams(1.0, 1.0)
        assert initial_branch_weights(p) == (1.0, 1.0, 1.0, 1.0)

    def test_substitution(self):
        p = BoltzmannParams(2.0, 1.0)
        assert initial_branch_weights(p) == (2.0, 0.5, 0.5, 2.0)

    def test_depth_one_closed_form(self):
        # Z_1 = 2 (a + 1/a)^2 independent of b, certified against enumeration
        c = Couplings(0.7, 1.3, 0.9)
        p = derive_params(c)
        z, _ = partition_recurrence(p, 1)
        assert z == pytest.approx(2.0 * (p.a + 1.0 / p.a) ** 2, rel=1e-14)
        assert z == pytest.approx(enumerate_partition(c, 1), rel=1e-12)


class TestEnumeration:
    def test_free_spins_count_states(self):
        c = Couplings(0.0, 0.0, 1.0)
        assert enumerate_partition(c, 1) == pytest.approx(8.0, rel=1e-15)
        assert enumerate_partition(c, 2) == pytest.approx(128.0, rel=1e-15)

    def test_depth_limit(self):
        with pytest.raises(DomainError):
            enumerate_partition(Couplings(0.0, 0.0, 1.0), 5)

    def test_depth_one_independent_of_j2(self):
        base = enumerate_partition(Couplings(0.8, 0.0, 1.1), 1)
        for j2 in (-2.0, -0.3, 0.6, 1.9):
            assert enumerate_partition(Couplings(0.8, j2, 1.1), 1) == pytest.approx(base, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_and_bond_forests(self, n):
        # every configuration is counted once; with one coupling switched off
        # the other's bonds form a forest, whose Z is a product over bonds:
        # the n.n. bonds one tree on |V_n| vertices, the n.n.n. bonds P_n
        # bonds on |V_n| - P_n trees
        size = tree_vertex_count(n)
        assert sum(count for _, count in _bond_sum_counts(n)) == 2**size
        c = Couplings(0.7, 0.0, 0.9)
        tree = 2.0 * (2.0 * math.cosh(c.beta * c.j1)) ** (size - 1)
        assert enumerate_partition(c, n) == pytest.approx(tree, rel=1e-14)
        pairs = len(tree_grandparent_pairs(n))
        c = Couplings(0.0, -1.3, 0.8)
        forest = 2.0 ** (size - pairs) * (2.0 * math.cosh(c.beta * c.j2)) ** pairs
        assert enumerate_partition(c, n) == pytest.approx(forest, rel=1e-14)

    def test_flip_symmetry_half_sum(self):
        # summing only configurations with the root spin up and doubling
        # reproduces the full sum (global flip invariance); the sum here is
        # a vectorised enumeration of its own, an independent route
        c = Couplings(0.9, -0.6, 0.8)
        n = 2
        spins, s_nn, s_nnn = _all_bond_sums(n)
        weights = np.exp(c.beta * (c.j1 * s_nn + c.j2 * s_nnn))
        half = 2.0 * math.fsum(weights[spins[:, 0] == 1].tolist())
        assert half == pytest.approx(enumerate_partition(c, n), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_match_the_whole_tree(self, n):
        # the one-branch walk, squared and doubled, against every
        # configuration of the whole tree, from the layout oracle's bonds
        _, s_nn, s_nnn = _all_bond_sums(n)
        pairs, counts = np.unique(np.stack([s_nn, s_nnn], axis=1), axis=0, return_counts=True)
        expected = {(int(nn), int(nnn)): int(k) for (nn, nnn), k in zip(pairs, counts)}
        assert dict(_bond_sum_counts(n)) == expected


class TestRecurrenceVsEnumeration:
    @pytest.mark.parametrize(
        "j1,j2,t",
        [
            (0.0, 0.0, 1.0),
            (0.8, -0.4, 1.1),
            (-0.6, 0.3, 0.7),
            (1.5, 1.0, 2.5),
            (0.3, -1.2, 0.5),
            (-1.1, -0.8, 0.9),
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_oracle_agreement(self, j1, j2, t, n):
        c = Couplings(j1, j2, t)
        z_rec, _ = partition_recurrence(derive_params(c), n)
        z_ref = enumerate_partition(c, n)
        assert z_rec == pytest.approx(z_ref, rel=1e-10)


class TestLogScaledMode:
    def test_agrees_with_direct(self):
        p = derive_params(Couplings(0.6, -0.2, 0.8))
        for n in (1, 2, 3, 5, 8):
            z, _ = partition_recurrence(p, n)
            log_z, u_hat, _ = partition_recurrence_log(p, n)
            assert log_z == pytest.approx(math.log(z), rel=1e-12)
            assert u_hat.max_norm() == 1.0

    def test_reaches_depths_direct_mode_cannot(self):
        p = derive_params(Couplings(1.0, 0.5, 0.4))
        with pytest.raises(ParameterRangeError, match="log"):
            partition_recurrence(p, 12)
        log_z, _, _ = partition_recurrence_log(p, 200)
        assert math.isfinite(log_z)
        # the weights fit a double, the squares that close Z do not
        for c, n in (
            (Couplings(3.437490619714394, 0.007838059538823897, 0.31179924434389394), 6),
            (TINY_RATIOS, 4),
        ):
            with pytest.raises(ParameterRangeError, match="log"):
                partition_recurrence(derive_params(c), n)

    def test_underflow_is_a_range_error(self):
        # the recurrence's smallest weight falls below the double range,
        # directly and relative to the largest one
        p = derive_params(Couplings(-242.5308157325041, 69.13014666047783, 1.0))
        with pytest.raises(ParameterRangeError):
            partition_recurrence(p, 3)
        with pytest.raises(ParameterRangeError):
            partition_recurrence_log(p, 60)

    @pytest.mark.parametrize("recurrence", [partition_recurrence, partition_recurrence_log])
    @pytest.mark.parametrize("n", [0, -1])
    def test_depth_below_one_is_rejected(self, recurrence, n):
        with pytest.raises(DomainError, match="depth n must be >= 1"):
            recurrence(derive_params(Couplings(0.6, -0.2, 0.8)), n)

    def test_positive_z(self):
        p = derive_params(Couplings(-0.9, 0.7, 0.6))
        for n in (1, 3, 7):
            log_z, _, _ = partition_recurrence_log(p, n)
            assert math.isfinite(log_z)


class TestPeriodicPartition:
    def test_depends_only_on_parity(self, params_symmetric_cycle):
        rep = solve_two_cycles(params_symmetric_cycle)
        y = rep.roots[0]
        for n in (0, 1, 5, 6):
            assert periodic_partition(params_symmetric_cycle, y, n) == periodic_partition(
                params_symmetric_cycle, y, n + 2
            )

    def test_matches_orbit_evaluation(self, params_symmetric_cycle):
        p = params_symmetric_cycle
        rep = solve_two_cycles(p)
        for y in rep.roots:
            u = lift_two_cycle(p, y)
            for n in range(0, 12):
                z_closed = periodic_partition(p, y, n)
                z_orbit = (u.u1 + u.u2) ** 2 + (u.u3 + u.u4) ** 2
                assert z_closed == pytest.approx(z_orbit, rel=1e-9)
                u = recurrence_step(p, u)

    def test_degenerate_boundary_parities_coincide(self):
        p = BoltzmannParams(math.sqrt(star_window(0.5)[1]), 0.5)
        rep = solve_two_cycles(p)
        assert rep.degenerate
        (x1,) = rep.roots
        even = periodic_partition(p, x1, 0)
        odd = periodic_partition(p, x1, 1)
        assert even == pytest.approx(odd, rel=1e-5)

    def test_rejects_negative_n(self, params_symmetric_cycle):
        y = solve_two_cycles(params_symmetric_cycle).roots[0]
        with pytest.raises(DomainError, match="n must be >= 0"):
            periodic_partition(params_symmetric_cycle, y, -1)

    def test_rejects_non_cycle_ratio(self, params_symmetric_cycle):
        with pytest.raises(DomainError):
            periodic_partition(params_symmetric_cycle, 3.21, 0)

    def test_lift_survives_intermediate_overflow(self):
        # the partner ratio of y is 3.9e155: squaring it overflows in the lift,
        # yet the lifted state is representable; the reference is a 50-digit
        # mpmath evaluation of the closed form
        p = BoltzmannParams(4.8787535436204675e42, 7.560174819073945e-31)
        y = min(solve_two_cycles(p).roots)
        assert math.isfinite(periodic_partition(p, y, 0))
        assert math.isfinite(periodic_partition(p, y, 1))
        u = lift_two_cycle(p, ratio_map(p, y))
        assert u.u1 == u.u4 == pytest.approx(9.6939320111748535903e-47, rel=1e-12)
        assert u.u2 == u.u3 == pytest.approx(2.4624784229669904546e-202, rel=1e-12)
        # a period-two state past the double range still raises: the fixed
        # state here, which is periodic at every period, has u1 near 1e-360
        p = BoltzmannParams(1e-100, 1e10)
        (root,) = solve_fixed_points(p).roots
        with pytest.raises(ParameterRangeError):
            periodic_state(p, normalize(StateVector(root.x, 1.0, 1.0, root.x)), 2)


class TestFreeEnergy:
    def test_free_spins(self):
        for t in (0.5, 1.0, 2.0):
            c = Couplings(0.0, 0.0, t)
            for n in (1, 4, 9):
                assert free_energy_density(c, n) == pytest.approx(-t * math.log(2.0), rel=1e-12)

    def test_depth_one_closed_form(self):
        c = Couplings(0.9, 0.4, 1.2)
        p = derive_params(c)
        expected = -c.temperature * math.log(2.0 * (p.a + 1.0 / p.a) ** 2) / 3.0
        assert free_energy_density(c, 1) == pytest.approx(expected, rel=1e-13)

    def test_settles_with_depth(self):
        c = Couplings(0.7, -0.3, 1.0)
        values = [free_energy_density(c, n) for n in range(4, 40, 4)]
        diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
        assert diffs[-1] < diffs[0]
        assert diffs[-1] < 1e-3
