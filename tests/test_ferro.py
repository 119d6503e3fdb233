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
    symmetric_residual,
)
from cayleyphase.scan import _starts_for_seeds

from conftest import maxdiff, normalized

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


def assert_genuine(p, cands):
    for f in cands:
        # componentwise, so that a small component must be fixed too
        assert all(abs(a - x) <= 1e-9 * x for a, x in zip(recurrence_step(p, f.u), f.u))
        assert f.full_residual <= 1e-9
        assert recurrence_residual(p, f.u) <= 1e-9
        assert symmetric_residual(f.u) > 1e-3
        assert ferro_residual(p, f.u) <= 1e-9
        assert f.C == pytest.approx(f.v[1] + f.v[2], rel=1e-12)


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
    # difference at unit max-norm merged
    @pytest.mark.parametrize(
        "c",
        [
            Couplings(0.36, 2.8, 3.76),
            Couplings(1.08, 2.97, 2.75),
            Couplings(0.36, 2.8, 3.82525),
            Couplings(-1.0, 2.0, 0.12525956809681205),
        ],
        ids=lambda c: f"j1={c.j1},j2={c.j2},T={c.temperature}",
    )
    def test_two_flip_pairs(self, c):
        p = derive_params(c)
        cands = solve_ferro_fixed_points(p)
        assert len(cands) == 4
        assert_genuine(p, cands)
        assert_flip_closed(cands)

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
