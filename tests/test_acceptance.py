"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math

import numpy as np
import pytest

from cayleyphase import (
    BoltzmannParams,
    Couplings,
    StateVector,
    classify_phase,
    critical_curve,
    critical_temperature,
    derive_params,
    enumerate_partition,
    iterate,
    lift_fixed_point,
    lift_two_cycle,
    normalize,
    partition_recurrence,
    periodic_partition,
    phase_counts,
    ratio_map,
    recurrence_step,
    solve_ferro_fixed_points,
    solve_fixed_points,
    solve_two_cycles,
    symmetric_residual,
)
from cayleyphase.core import bracketed_root
from cayleyphase.scan import AxisSpec, ScanConfig, format_csv, run_scan

from conftest import TINY_RATIOS, maxdiff, normalized
from oracles import multi_root_window, params_at_level, ratio_map2, star_window


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_partition_oracle():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(25):
        j1 = float(rng.uniform(-2.0, 2.0))
        j2 = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.2, 5.0))
        c = Couplings(j1, j2, t)
        p = derive_params(c)
        for n in (1, 2, 3):
            z_rec, _ = partition_recurrence(p, n)
            z_ref = enumerate_partition(c, n)
            rel = abs(z_rec - z_ref) / z_ref
            worst = max(worst, rel)
            assert rel <= 1e-10
    report(1, f"recurrence matches enumeration over 25 random points, worst rel {worst:.2e}")


def test_criterion_02_fixed_point_regimes():
    checked = 0
    for b_tilde in (1.0, 4.0, 9.0, 9.5, 12.0, 16.0, 25.0):
        b = b_tilde**0.25
        window = multi_root_window(b_tilde)
        if window is None:
            assert b_tilde <= 9.0
            for level in np.geomspace(1e-4, 1e2, 50):
                rep = solve_fixed_points(params_at_level(float(level), b))
                assert len(rep.roots) == 1, (b_tilde, level)
                checked += 1
        else:
            lo, hi = window
            width = hi - lo
            inside = np.geomspace(lo + 1e-3 * width, hi - 1e-3 * width, 20)
            below = np.geomspace(lo * 1e-3, lo - 1e-3 * width, 14)
            above = np.geomspace(hi + 1e-3 * width, hi * 1e3, 14)
            for level in inside:
                rep = solve_fixed_points(params_at_level(float(level), b))
                assert len(rep.roots) == 3, (b_tilde, level)
                checked += 1
            for level in np.concatenate([below, above]):
                rep = solve_fixed_points(params_at_level(float(level), b))
                assert len(rep.roots) == 1, (b_tilde, level)
                checked += 1
            for level in (lo, hi):  # exactly on the window edge
                rep = solve_fixed_points(params_at_level(level, b))
                assert len(rep.roots) == 2, (b_tilde, level)
                checked += 1
        # stability tags must match the derivative magnitudes
        probe = window[0] * 1.01 if window else 1.0
        rep = solve_fixed_points(params_at_level(probe, b))
        for r in rep.roots:
            if r.stability == "stable":
                assert abs(r.derivative) < 1.0
            elif r.stability == "unstable":
                assert abs(r.derivative) > 1.0
            else:
                assert abs(abs(r.derivative) - 1.0) <= 1e-8
    report(2, f"fixed-point counts match the predicted regimes at {checked} grid points")


def test_criterion_03_two_cycle_cases():
    p = BoltzmannParams(1.0, 0.5)
    rep = solve_two_cycles(p)
    x_lo, x_hi = rep.roots
    for y in (x_lo, x_hi):
        assert abs(ratio_map2(p, y) - y) <= 1e-9 * max(1.0, y)
    assert abs(ratio_map(p, x_hi) - x_lo) <= 1e-9 * max(1.0, x_lo)
    assert abs(ratio_map(p, x_lo) - x_hi) <= 1e-9 * max(1.0, x_hi)

    rep_hot = solve_two_cycles(BoltzmannParams(1.0, 0.9))
    assert rep_hot.roots == ()

    rep_one = solve_two_cycles(BoltzmannParams(1.7, 1.0))
    assert rep_one.discriminant == 0.0
    report(3, "two-cycle pair at (a=1, b=0.5), none at b=0.9, exact zero discriminant at b=1")


def test_criterion_04_critical_temperature():
    assert critical_temperature(math.log(3.0) / 2.0) == 1.0
    for j2 in (0.25, 1.0, 3.3):
        tc = critical_temperature(j2)
        assert math.exp(4.0 * j2 / tc) == pytest.approx(9.0, rel=1e-12)
    report(4, "T_c exact at j2 = ln(3)/2 and b^4 = 9 at T_c to 1e-12")


def test_criterion_05_critical_curve_roundtrip():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        j2 = -float(rng.uniform(0.2, 2.0))
        tc = critical_temperature(j2)
        t = float(rng.uniform(0.3, 0.95)) * tc  # guarantees b <= sqrt(1/3)
        beta = 1.0 / t
        sample = critical_curve(j2, beta)
        for j1 in (sample.j1_plus, sample.j1_minus):
            rep = solve_two_cycles(derive_params(Couplings(j1, j2, t)))
            ratio = abs(rep.discriminant) / rep.b_coeff**2
            worst = max(worst, ratio)
            assert ratio <= 1e-8
    report(5, f"discriminant vanishes on the critical curves, worst |D|/B^2 = {worst:.2e}")


def _eventually_monotone(seq):
    increments = [b - a for a, b in zip(seq, seq[1:])]
    # drop the transient first step; the rest must carry one sign (or be zero)
    tail = [d for d in increments[1:] if d != 0.0]
    if not tail:
        return True
    sign = math.copysign(1.0, tail[-1])
    return all(math.copysign(1.0, d) == sign for d in tail)


def test_criterion_06_scalar_convergence():
    rng = np.random.default_rng(6)

    def run_map(p, step, x0):
        xs = [x0]
        for _ in range(200_000):
            xn = step(p, xs[-1])
            xs.append(xn)
            if abs(xn - xs[-2]) <= 1e-13 * max(1.0, xn):
                return xs
        raise AssertionError("iteration did not settle")

    window16 = multi_root_window(16.0)
    window256 = multi_root_window(256.0)
    growing = [
        BoltzmannParams(0.7, 1.2),
        params_at_level(math.sqrt(window16[0] * window16[1]), 2.0),
        params_at_level(math.sqrt(window256[0] * window256[1]), 4.0),
    ]
    for p in growing:
        roots = [r.x for r in solve_fixed_points(p).roots]
        for _ in range(100):
            x0 = float(10.0 ** rng.uniform(-4.0, 4.0))
            xs = run_map(p, ratio_map, x0)
            assert _eventually_monotone(xs)
            assert min(abs(xs[-1] - r) for r in roots) <= 1e-6 * max(1.0, xs[-1])

    for b in (0.2, 0.5):
        p = BoltzmannParams(1.0, b)
        targets = [r.x for r in solve_fixed_points(p).roots] + list(solve_two_cycles(p).roots)
        for _ in range(100):
            x0 = float(10.0 ** rng.uniform(-4.0, 4.0))
            xs = run_map(p, ratio_map2, x0)
            assert _eventually_monotone(xs)
            assert min(abs(xs[-1] - r) for r in targets) <= 1e-6 * max(1.0, xs[-1])
    report(6, "ratio iterations are eventually monotone and land on known attractors")


def higher_period_roots(p, max_period):
    """``{n: [(x, matched), ...]}`` for n = 3..max_period: every root x of
    ``g^n(x) = x`` that a scan finds, and whether it is a fixed or two-cycle
    ratio of the slice within 1e-8 relative.

    The scan looks for sign changes of ``g^n(x) - x`` on 4096 log-spaced
    points a decade, bisects each, and merges roots within 1e-8 relative.
    Its interval is the map's range with a factor-10 margin at each end:
    every periodic point is an image, so none can sit outside it.  The ratio
    map is monotone, so the theorem in :mod:`cayleyphase.symmetric` says
    that every root is matched; this is its numerical check.
    """
    reference = [r.x for r in solve_fixed_points(p).roots] + list(solve_two_cycles(p).roots)
    spread = 10.0 * max(p.b_tilde, 1.0 / p.b_tilde)
    lo, hi = p.a * p.a / spread, p.a * p.a * spread
    xs = np.geomspace(lo, hi, int(math.ceil(4096 * math.log10(hi / lo))) + 1)
    found = {}
    for period in range(3, max_period + 1):

        def resid(x, _period=period):
            y = x
            for _ in range(_period):
                y = ratio_map(p, y)
            return y - x

        d = resid(xs)
        crossings = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        roots = [bracketed_root(resid, xs[i], xs[i + 1]) for i in crossings] + xs[d == 0.0].tolist()
        merged = []
        for r in sorted(roots):
            if not (merged and r - merged[-1] <= 1e-8 * r):
                merged.append(r)
        found[period] = [(r, any(abs(r - x) <= 1e-8 * r for x in reference)) for r in merged]
    return found


def all_matched(found):
    return all(matched for roots in found.values() for _, matched in roots)


def test_criterion_07_higher_period_exclusion():
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(10):
        pairs.append((float(10.0 ** rng.uniform(-0.5, 0.5)), float(rng.uniform(1.05, 3.0))))
    for _ in range(10):
        pairs.append((float(10.0 ** rng.uniform(-0.5, 0.5)), float(rng.uniform(0.2, 0.95))))
    for a, b in pairs:
        found = higher_period_roots(BoltzmannParams(a, b), 8)
        assert all_matched(found), (a, b, found)

    trials = 0
    for a, b in pairs:
        p = BoltzmannParams(a, b)
        for _ in range(25):
            r1 = float(10.0 ** rng.uniform(-1.5, 1.5))
            r2 = float(10.0 ** rng.uniform(-1.5, 1.5))
            out = iterate(p, StateVector(r1, r2, r2, r1))
            if out.kind == "cycle":
                assert out.period == 2, (a, b, out.period)
            trials += 1
    assert trials == 500
    report(7, "no period 3..8 orbits found by scan or by 500 slice trajectories")


class TestExcludeHigherPeriods:
    def test_positive_j2_roots_are_fixed_points(self):
        p = BoltzmannParams(0.8, 1.4)
        found = higher_period_roots(p, 4)
        assert sorted(found) == [3, 4]
        assert all_matched(found)

    def test_negative_j2_roots_include_two_cycle(self, params_symmetric_cycle):
        found = higher_period_roots(params_symmetric_cycle, 4)
        assert all_matched(found)
        # even composition sees the two-cycle ratios again
        assert len(found[4]) >= 3

    def test_constant_map_single_root(self):
        p = BoltzmannParams(1.7, 1.0)
        found = higher_period_roots(p, 5)
        assert all_matched(found)
        for roots in found.values():
            assert len(roots) == 1
            assert roots[0][0] == pytest.approx(p.a * p.a, rel=1e-10)

    def test_tiny_fixed_ratios_are_matched(self):
        p = derive_params(TINY_RATIOS)
        fixed = [r.x for r in solve_fixed_points(p).roots]
        assert len(fixed) == 3
        found = higher_period_roots(p, 4)
        assert all_matched(found)
        for roots in found.values():
            assert len(roots) == 3
            for (r, _), x in zip(roots, fixed):
                assert r == pytest.approx(x, rel=1e-8)


def test_criterion_08_lift_residuals():
    worst_fix = 0.0
    worst_cyc = 0.0
    window16 = multi_root_window(16.0)
    fixture_params = [
        BoltzmannParams(1.0, 1.0),
        BoltzmannParams(0.8, 1.3),
        params_at_level(math.sqrt(window16[0] * window16[1]), 2.0),
        params_at_level(window16[0], 2.0),  # boundary pair
    ]
    for p in fixture_params:
        for r in solve_fixed_points(p).roots:
            u = lift_fixed_point(p, r.x)
            res = maxdiff(recurrence_step(p, u), u) / u.max_norm()
            worst_fix = max(worst_fix, res)
            assert res <= 1e-9
    rng = np.random.default_rng(8)
    for _ in range(6):
        b = float(rng.uniform(0.2, 0.55))
        lo, hi = star_window(b)
        a2 = float(rng.uniform(0.0, 1.0)) * (hi - lo) * 0.9 + lo * 1.05
        p = BoltzmannParams(math.sqrt(a2), b)
        rep = solve_two_cycles(p)
        for y in rep.roots:
            u = lift_two_cycle(p, y)
            w2 = recurrence_step(p, recurrence_step(p, u))
            res = maxdiff(w2, u) / u.max_norm()
            worst_cyc = max(worst_cyc, res)
            assert res <= 1e-9
    report(8, f"lift residuals: fixed {worst_fix:.2e}, period-two {worst_cyc:.2e} (tolerance 1e-9)")


def test_criterion_09_periodic_partition():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10):
        b = float(rng.uniform(0.2, 0.55))
        lo, hi = star_window(b)
        frac = float(rng.uniform(0.1, 0.9))
        a2 = lo * (hi / lo) ** frac
        p = BoltzmannParams(math.sqrt(a2), b)
        rep = solve_two_cycles(p)
        assert len(rep.roots) == 2
        y = rep.roots[1]
        u = lift_two_cycle(p, y)
        for n in range(0, 21):
            z_closed = periodic_partition(p, y, n)
            z_orbit = (u.u1 + u.u2) ** 2 + (u.u3 + u.u4) ** 2
            rel = abs(z_closed - z_orbit) / z_orbit
            worst = max(worst, rel)
            assert rel <= 1e-9
            u = recurrence_step(p, u)
    report(9, f"periodic partition matches the iterated orbit for n <= 20, worst rel {worst:.2e}")


def test_criterion_10_multiphase_window():
    j2 = 1.0
    tc = critical_temperature(j2)
    assert tc == pytest.approx(2.0 / math.log(3.0), rel=1e-15)

    # pick j1 so the three-phase window is entered at T0 = 1.45 < T_c; the
    # level is taken off the window's geometric centre, which would land on
    # the degenerate j1 = 0 axis exactly
    t0 = 1.45
    b0 = math.exp(j2 / t0)
    window = multi_root_window(b0**4)
    level = window[0] * (window[1] / window[0]) ** 0.35
    a0 = (level * b0**6) ** -0.5
    j1 = t0 * math.log(a0)
    assert abs(j1) > 1e-3

    qualifying = 0
    for t in sorted(np.linspace(1.2, 2.2, 21).tolist() + [tc]):
        c = Couplings(j1, j2, float(t))
        para, _ = phase_counts(c)
        p = derive_params(c)
        window_t = multi_root_window(p.b_tilde)
        if t >= tc:
            assert para == 1, t
            assert window_t is None or not (
                p.b**3 * math.sqrt(window_t[0]) < 1.0 / p.a < p.b**3 * math.sqrt(window_t[1])
            )
        elif window_t is not None:
            lo = p.b**3 * math.sqrt(window_t[0])
            hi = p.b**3 * math.sqrt(window_t[1])
            if lo * 1.0001 < 1.0 / p.a < hi * 0.9999:  # strictly inside
                assert para == 3, t
                assert len(solve_fixed_points(p).roots) == 3
                qualifying += 1
    assert qualifying >= 3

    # both stable attractors are reachable from the two sides of the unstable root
    p0 = derive_params(Couplings(j1, j2, t0))
    roots = [r.x for r in solve_fixed_points(p0).roots]
    for x0, expected in ((roots[1] * 0.5, roots[0]), (roots[1] * 2.0, roots[2])):
        out = iterate(p0, StateVector(x0, 1.0, 1.0, x0))
        assert out.kind == "fixed-direction"
        limit = out.attractor[-1]
        assert limit.u1 / limit.u2 == pytest.approx(expected, rel=1e-8)
    report(10, f"one phase at/above T_c, three inside the window ({qualifying} T samples), both basins reached")


def test_criterion_11_cross_validation():
    rng = np.random.default_rng(11)
    points = [
        Couplings(1.0, 0.15, 0.6),
        Couplings(1.0, 0.0, 0.5),
        Couplings(0.9, -0.05, 0.4),
        Couplings(1.0, 0.9, 1.0),
        Couplings(0.1, 0.05, 3.0),
        Couplings(0.2, 0.4, 4.0),
    ]
    ferro_seen = 0
    para_seen = 0
    for c in points:
        p = derive_params(c)
        cands = solve_ferro_fixed_points(p)
        stable_roots = [r.x for r in solve_fixed_points(p).roots if r.stability == "stable"]
        for _ in range(3):
            u0 = StateVector(*(10.0 ** rng.uniform(-2.0, 2.0, size=4)))
            out = iterate(p, u0)
            label = classify_phase(p, out)
            if label.phase == "ferromagnetic":
                ferro_seen += 1
                limit = normalized(out.attractor[-1])
                best = min(maxdiff(limit, normalized(f.u)) for f in cands)
                assert best <= 1e-6
            elif label.phase == "paramagnetic":
                para_seen += 1
                limit = out.attractor[-1]
                ratio = limit.u1 / limit.u2
                assert min(abs(ratio - r) for r in stable_roots) <= 1e-8 * max(1.0, ratio)
    assert ferro_seen >= 6 and para_seen >= 6
    report(11, f"dynamics limits match solver outputs ({ferro_seen} ferro, {para_seen} para runs)")


def test_criterion_12_determinism_and_scale():
    cfg = dict(
        axes=[AxisSpec("temperature", 0.9, 2.1, 3), AxisSpec("j1", 0.1, 0.8, 3)],
        j2=-0.4,
        seeds=[1, 2],
        max_iter=4000,
    )
    csv1 = format_csv(run_scan(ScanConfig(workers=1, **cfg)))
    csv4 = format_csv(run_scan(ScanConfig(workers=4, **cfg)))
    assert csv1 == csv4

    p = derive_params(Couplings(1.0, 0.15, 0.6))
    base_out = iterate(p, StateVector(1.0, 0.3, 0.2, 0.05))
    base = classify_phase(p, base_out)
    for lam in (1e-3, 1e3):
        out = iterate(p, StateVector(*(lam * x for x in (1.0, 0.3, 0.2, 0.05))))
        label = classify_phase(p, out)
        assert label.phase == base.phase
        assert label.period == base.period
        assert maxdiff(out.attractor[-1], base_out.attractor[-1]) <= 1e-9
    report(12, "scan bytes identical across worker counts; labels invariant under 1e+/-3 scaling")
