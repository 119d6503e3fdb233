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
    solve_ferro_fixed_points,
    symmetric_residual,
)

from conftest import maxdiff, normalized

FERRO_POINTS = [
    Couplings(1.0, 0.15, 0.6),
    Couplings(1.0, 0.0, 0.5),
    Couplings(0.9, -0.05, 0.4),
    Couplings(1.0, 0.9, 1.0),
    # a flip pair at machine-scale residual that a solver success flag once
    # rejected
    Couplings(0.25, 0.5, 1.5),
]


def assert_genuine(p, cands):
    for f in cands:
        assert f.full_residual <= 1e-9
        assert recurrence_residual(p, f.u) <= 1e-9
        assert symmetric_residual(f.u) > 1e-3
        assert ferro_residual(p, f.u) <= 1e-9
        assert f.C == pytest.approx(f.v[1] + f.v[2], rel=1e-12)


def assert_flip_closed(cands):
    for f in cands:
        flipped = f.u.components[::-1]
        best = min(
            maxdiff(normalized(g.u), tuple(x / max(flipped) for x in flipped)) for g in cands
        )
        assert best <= 1e-8


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

    # two flip pairs each, one of them close to the symmetric slice; the
    # trajectories need not end ferromagnetic here, so these are not
    # FERRO_POINTS
    @pytest.mark.parametrize(
        "c",
        [Couplings(0.36, 2.8, 3.76), Couplings(1.08, 2.97, 2.75)],
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
                p = BoltzmannParams.from_weights(10.0**log_a, 10.0**log_b)
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
