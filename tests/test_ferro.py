import math
import random

import pytest

from cayleyphase import (
    BoltzmannParams,
    Couplings,
    ParameterRangeError,
    StateVector,
    classify_phase,
    derive_params,
    ferro_residual,
    iterate,
    recurrence_residual,
    recurrence_step,
    solve_ferro_fixed_points,
)
from cayleyphase.scan import _starts_for_seeds

from conftest import maxdiff, normalized
from exact import ferro_count

FERRO_POINTS = [
    Couplings(1.0, 0.15, 0.6),
    Couplings(1.0, 0.0, 0.5),
    Couplings(0.9, -0.05, 0.4),
    Couplings(1.0, 0.9, 1.0),
    # a flip pair at machine-scale residual that a solver success flag once
    # rejected
    Couplings(0.25, 0.5, 1.5),
    # cold flip pairs with b^4 > 2e16, where mu = b^-4 - 1 rounds to -1 and a
    # walk along the branches of the curve found no candidate
    Couplings(1.0, 1.5, 0.09),
    Couplings(0.3, 0.48, 0.03),
    Couplings(1.0, 1.2, 0.125),
    Couplings(1.0, 0.9, 0.09),
]

# the box j1, j2 in [-3, 3], T in [0.1, 3], drawn from random.Random(1):
# its first 12 draws
_BOX = random.Random(1)
BOX_DRAWS = [Couplings(_BOX.uniform(-3, 3), _BOX.uniform(-3, 3), _BOX.uniform(0.1, 3)) for _ in range(12)]

# a second pair, u1/u4 from 20 to 2.6e10, whose large components lie on the
# slice: two later draws of the box, and the three cold FERRO_POINTS that
# have one
PAIR_ON_THE_SLICE = [
    Couplings(1.7691626391049802, 2.2683114287171886, 0.5242665960056699),
    Couplings(2.2297290445413314, 2.3980696178086873, 0.15246965255736805),
    *FERRO_POINTS[5:8],
]


def assert_genuine(p, cands):
    for f in cands:
        # componentwise, so that a small component must be fixed too
        assert all(abs(a - x) <= 1e-9 * x for a, x in zip(recurrence_step(p, f.u), f.u))
        assert f.full_residual == recurrence_residual(p, f.u) <= 1e-9
        assert f.u.u1 != f.u.u4
        assert ferro_residual(p, f.u) <= 1e-9
        assert f.C == pytest.approx(f.v[1] + f.v[2], rel=1e-12)
    # each pair is listed once: no two pairs agree componentwise to 1e-6
    for i, f in enumerate(cands):
        for j, g in enumerate(cands[i + 1 :], start=i + 1):
            if i // 2 != j // 2:
                assert any(abs(a - b) > 1e-6 * max(a, b) for a, b in zip(f.u, g.u))


def unmatched_ferro_limits(c: Couplings) -> list[int]:
    """Program seeds 0-3 whose trajectory ends ferromagnetic at a limit that
    no candidate matches within 1e-6 at unit max-norm."""
    p = derive_params(c)
    cands = [normalized(f.u) for f in solve_ferro_fixed_points(p)]
    missing = []
    for seed, start in _starts_for_seeds([0, 1, 2, 3]).items():
        out = iterate(p, StateVector(*start), max_iter=5000)
        if classify_phase(p, out).phase == "ferromagnetic":
            limit = normalized(out.attractor[-1])
            if not any(maxdiff(limit, f) <= 1e-6 for f in cands):
                missing.append(seed)
    return missing


def assert_flip_closed(cands):
    # the flip is an exact symmetry of the map: each partner is the exact mirror
    states = {(f.v, f.u, f.C, f.full_residual) for f in cands}
    for f in cands:
        assert (f.v[::-1], f.u[::-1], f.C, f.full_residual) in states


class TestSolveFerroFixedPoints:
    def test_empty_in_paramagnetic_regime(self):
        p = derive_params(Couplings(0.1, 0.05, 3.0))
        assert solve_ferro_fixed_points(p) == []

    @pytest.mark.parametrize("c", FERRO_POINTS, ids=lambda c: f"j1={c.j1},j2={c.j2},T={c.temperature}")
    def test_candidates_are_genuine(self, c):
        p = derive_params(c)
        cands = solve_ferro_fixed_points(p)
        assert cands, "expected symmetry-broken fixed points here"
        assert_genuine(p, cands)

    @pytest.mark.parametrize("c", FERRO_POINTS[:2], ids=lambda c: f"j1={c.j1},j2={c.j2}")
    def test_flip_partners_both_returned(self, c):
        cands = solve_ferro_fixed_points(derive_params(c))
        assert len(cands) % 2 == 0
        assert_flip_closed(cands)

    # two flip pairs each; the trajectories need not end ferromagnetic here,
    # so these are not FERRO_POINTS.  In the first three, one pair is close
    # to the symmetric slice; at T = 3.82525 the near pair puts both its
    # roots into one grid interval of H, so the sign walk alone finds only
    # the far pair.  In the last, the two pairs share u1 and differ by
    # decades in their small components, which a dedup by absolute
    # difference at unit max-norm merged.  In the rest, one pair has its
    # large components on the slice and its small ones decades apart, which
    # a cut at slice distance 1e-3 of the max-normalised state dropped
    @pytest.mark.parametrize(
        "c",
        [
            Couplings(0.36, 2.8, 3.76),
            Couplings(1.08, 2.97, 2.75),
            Couplings(0.36, 2.8, 3.82525),
            Couplings(-1.0, 2.0, 0.12525956809681205),
            *PAIR_ON_THE_SLICE,
        ],
        ids=lambda c: f"j1={c.j1},j2={c.j2},T={c.temperature}",
    )
    def test_two_flip_pairs(self, c):
        p = derive_params(c)
        cands = solve_ferro_fixed_points(p)
        assert len(cands) == 4
        assert_genuine(p, cands)
        assert_flip_closed(cands)

    def test_pair_listed_just_below_the_ferro_line(self):
        # j2 = 0, 1 - T/Tc = 1e-8: the pair lies at slice distance 3.6e-4
        p = derive_params(Couplings(1.0, 0.0, (1.0 - 1e-8) / math.atanh(0.5)))
        cands = solve_ferro_fixed_points(p)
        assert len(cands) == 2
        assert_genuine(p, cands)

    @pytest.mark.parametrize(
        "c",
        [*PAIR_ON_THE_SLICE, FERRO_POINTS[0], *BOX_DRAWS],
        ids=lambda c: f"j1={c.j1:.6g},j2={c.j2:.6g},T={c.temperature:.6g}",
    )
    def test_every_root_of_the_ferro_polynomial_is_listed(self, c):
        p = derive_params(c)
        assert len(solve_ferro_fixed_points(p)) == ferro_count(p)

    def test_extreme_weights_do_not_raise(self, rng):
        # log-uniform over the accepted weight range (a in [1e-150, 1e150],
        # b**4 likewise, 1/(a^2 b^6) a double); the search must not raise
        accepted = 0
        for log_a, log_b in zip(rng.uniform(-150, 150, 80), rng.uniform(-37.5, 37.5, 80)):
            try:
                p = BoltzmannParams(10.0**log_a, 10.0**log_b)
            except ParameterRangeError:
                continue
            accepted += 1
            assert_genuine(p, solve_ferro_fixed_points(p))
        assert accepted >= 40

    def test_dynamics_limit_matches_candidate(self):
        for c in FERRO_POINTS:
            p = derive_params(c)
            cands = solve_ferro_fixed_points(p)
            out = iterate(p, StateVector(1.0, 0.3, 0.2, 0.05))
            label = classify_phase(p, out)
            assert label.phase == "ferromagnetic"
            limit = normalized(out.attractor[-1])
            best = min(maxdiff(limit, normalized(f.u)) for f in cands)
            assert best <= 1e-6

    def test_tiny_components_are_kept(self):
        # at (1, 0, 0.2) the ferro states have components 1e-13 of the
        # largest; a floor relative to the largest component discarded them
        p = derive_params(Couplings(1.0, 0.0, 0.2))
        cands = solve_ferro_fixed_points(p)
        assert len(cands) == 2
        assert_genuine(p, cands)
        assert min(min(normalized(f.u)) for f in cands) < 1e-12
        assert unmatched_ferro_limits(Couplings(1.0, 0.0, 0.2)) == []

    # cold points, b^4 from 2e17 to 9e28, whose roots in w lie below 1e-14,
    # near q^2 = 1/(a b^3)^2
    @pytest.mark.parametrize(
        "c",
        [Couplings(1.0, 0.5, 0.03), Couplings(1.0, 0.8, 0.05), Couplings(0.3, 0.3, 0.03)],
        ids=lambda c: f"j1={c.j1},j2={c.j2},T={c.temperature}",
    )
    def test_cold_flip_pair_matches_every_limit(self, c):
        p = derive_params(c)
        cands = solve_ferro_fixed_points(p)
        assert len(cands) == 2
        assert_genuine(p, cands)
        assert unmatched_ferro_limits(c) == []

    def test_every_ferromagnetic_limit_is_a_candidate(self):
        grid = [
            Couplings(j1, ratio * abs(j1), t)
            for j1 in (1.0, -1.0)
            for ratio in (0.5, 1.0, 1.5, 2.0)
            for t in (0.3, 0.45, 0.6, 0.75)
        ]
        missing = {c: unmatched_ferro_limits(c) for c in grid}
        assert not any(missing.values()), {c: s for c, s in missing.items() if s}
