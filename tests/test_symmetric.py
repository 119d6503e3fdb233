import math
import random
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cayleyphase import (
    BoltzmannParams,
    Couplings,
    DomainError,
    ParameterRangeError,
    critical_curve,
    critical_temperature,
    cycle_thresholds,
    derive_params,
    lift_fixed_point,
    lift_two_cycle,
    phase_counts,
    ratio_map,
    ratio_map_deriv,
    recurrence_residual,
    recurrence_step,
    solve_fixed_points,
    solve_two_cycles,
    symmetric_residual,
    tabulate_critical_curves,
)

from conftest import DIAGNOSE_POINTS, TINY_RATIOS, TINY_RATIOS_EXACT, maxdiff
from oracles import multi_root_window, params_at_level, ratio_map2


# closed forms of the slice lifts: independent oracles for the homogeneity lift
def closed_form_fixed_lift(p: BoltzmannParams, x: float) -> tuple[float, float]:
    u1 = 1.0 / (p.a * (p.b + 1.0 / (p.b * x)) ** 2)
    u2 = p.a / (p.b + x / p.b) ** 2
    return u1, u2


def closed_form_two_cycle_lift(p: BoltzmannParams, y: float) -> tuple[float, float]:
    a, b = p.a, p.b
    e1 = a * b * (b + 1.0 / (b * y)) ** 2 + (b / y + 1.0 / b) ** 2 / (a * b)
    e2 = b * (b + y / b) ** 2 / a + a * (b * y + 1.0 / b) ** 2 / b
    return a ** (-1.0 / 3.0) * e1 ** (-2.0 / 3.0), a ** (1.0 / 3.0) * e2 ** (-2.0 / 3.0)


class TestMultiRootWindow:
    def test_absent_at_or_below_nine(self):
        for bt in (0.5, 1.0, 4.0, 9.0):
            assert multi_root_window(bt) is None

    def test_critical_points_at_16(self):
        # roots of y^2 - 13 y + 16 = 0
        lo, hi = multi_root_window(16.0)
        y1 = (13.0 - math.sqrt(105.0)) / 2.0
        y2 = (13.0 + math.sqrt(105.0)) / 2.0
        assert y1 == pytest.approx(1.3765246170202009, rel=1e-14)
        assert y2 == pytest.approx(11.6234753829797990, rel=1e-14)
        for y in (y1, y2):
            assert y * y + (3.0 - 16.0) * y + 16.0 == pytest.approx(0.0, abs=1e-12)

        def nu(y):
            return ((1.0 + y) / (16.0 + y)) ** 2 / y

        assert lo == pytest.approx(min(nu(y1), nu(y2)), rel=1e-13)
        assert hi == pytest.approx(max(nu(y1), nu(y2)), rel=1e-13)
        assert 0.0 < lo < hi

    def test_window_predicts_three_roots(self):
        lo, hi = multi_root_window(16.0)
        p = params_at_level(math.sqrt(lo * hi), 2.0)
        assert solve_fixed_points(p).regime == "three"


class TestSolveFixedPoints:
    def test_unit_weights_unique(self):
        rep = solve_fixed_points(BoltzmannParams(1.0, 1.0))
        assert rep.regime == "unique"
        (root,) = rep.roots
        assert root.x == pytest.approx(1.0, rel=1e-14)
        assert root.derivative == 0.0
        assert root.stability == "stable"

    @pytest.mark.parametrize("a", [0.2, 0.8, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("b", [0.4, 0.9, 1.0, 1.3, 1.7])
    def test_unique_when_b4_small(self, a, b):
        # b^4 <= 9 for every b here
        p = BoltzmannParams(a, b)
        rep = solve_fixed_points(p)
        assert rep.regime == "unique"
        (root,) = rep.roots
        assert abs(ratio_map(p, root.x) - root.x) <= 1e-10 * max(1.0, root.x)

    def test_three_root_regime_structure(self, params_three_roots):
        rep = solve_fixed_points(params_three_roots)
        assert rep.regime == "three"
        xs = [r.x for r in rep.roots]
        assert xs == sorted(xs)
        stability = [r.stability for r in rep.roots]
        assert stability == ["stable", "unstable", "stable"]
        for r in rep.roots:
            assert abs(ratio_map(params_three_roots, r.x) - r.x) <= 1e-10 * max(1.0, r.x)
            # stability tags agree with the derivative magnitude
            if r.stability == "stable":
                assert abs(r.derivative) < 1.0
            else:
                assert abs(r.derivative) > 1.0

    def test_boundary_reports_double_root_once(self):
        lo, hi = multi_root_window(16.0)
        for level in (lo, hi):
            rep = solve_fixed_points(params_at_level(level, 2.0))
            assert rep.regime == "two"
            tags = [r.stability for r in rep.roots]
            assert tags.count("saddle-boundary") == 1
            assert tags.count("stable") == 1

    def test_tiny_middle_root_is_kept(self):
        p = derive_params(TINY_RATIOS)
        rep = solve_fixed_points(p)
        assert rep.regime == "three"
        assert [r.stability for r in rep.roots] == ["stable", "unstable", "stable"]
        for r, exact in zip(rep.roots, TINY_RATIOS_EXACT):
            assert r.x == pytest.approx(exact, rel=1e-13)
            assert abs(ratio_map(p, r.x) - r.x) <= 1e-13 * r.x
        assert phase_counts(TINY_RATIOS) == (3, 0)

    def test_huge_root_gets_a_finite_slope(self):
        # the root near 1.7e143 sits where g is flat; a derivative formed
        # from overflowing factors came out NaN and tagged it unstable
        c = Couplings(1.9085939472954179, 2.325617488934192, 0.0397799707469168)
        big = solve_fixed_points(derive_params(c)).roots[-1]
        assert big.x == pytest.approx(1.709071185844e143, rel=1e-12)
        assert 0.0 < big.derivative < 1e-90
        assert big.stability == "stable"

    @pytest.mark.parametrize(
        "c",
        [Couplings(300.0, 20.0, 1.0), Couplings(-336.8354134704659, 38.459677197930944, 1.0)],
        ids=["above", "below"],
    )
    def test_root_outside_double_range_is_a_range_error(self, c):
        # a fixed ratio beyond the largest or below the smallest normal double
        with pytest.raises(ParameterRangeError, match="outside the double range"):
            solve_fixed_points(derive_params(c))

    def test_accepted_couplings_answer_or_raise_range_error(self):
        # across the accepted range at T = 1 every answer is a list of
        # normal positive doubles that the map fixes
        rng = random.Random(20261018)
        answered = refused = 0
        for _ in range(300):
            try:
                p = derive_params(Couplings(rng.uniform(-345, 345), rng.uniform(-86, 86), 1.0))
            except ParameterRangeError:
                continue
            try:
                rep = solve_fixed_points(p)
            except ParameterRangeError:
                refused += 1
                continue
            answered += 1
            for r in rep.roots:
                assert sys.float_info.min <= r.x < math.inf, r
                assert abs(ratio_map(p, r.x) - r.x) <= 1e-12 * r.x
        assert answered >= 200 and refused >= 5


def exact_two_cycle_roots(p: BoltzmannParams) -> tuple[Decimal, Decimal]:
    """Roots of the two-cycle quadratic at the exact weights, to 120 digits."""
    with localcontext() as ctx:
        ctx.prec = 120
        a2, b2 = Decimal(p.a) ** 2, Decimal(p.b) ** 2
        b4 = b2 * b2
        B = a2 * (b4 * b4 + 2 * (1 / a2 + a2) * b4 * b2 + 4 * b4 - 1)
        lead, const = b4 * (1 + a2 * b2) ** 2, b4 * (a2 + b2) ** 2
        t = (-B + (B * B - 4 * lead * const).sqrt()) / 2
        return const / t, t / lead


class TestTwoCycles:
    def test_closed_form_roots_are_not_degraded(self):
        # a Newton polish on the two-generation residual moved these roots
        # 5.9e-13 away from the quadratic's
        p = derive_params(Couplings(1.0599117557546407, -1.8320372213859288, 3.2569739092725816))
        roots = solve_two_cycles(p).roots
        assert len(roots) == 2
        for r, exact in zip(roots, exact_two_cycle_roots(p)):
            assert abs(Decimal(r) - exact) <= Decimal(2e-14) * exact

    def test_half_b_unit_a(self, params_symmetric_cycle):
        rep = solve_two_cycles(params_symmetric_cycle)
        # exact dyadic inputs: B and the factored discriminant are exact
        assert rep.b_coeff == -0.68359375
        assert rep.discriminant == 0.4291534423828125
        x_lo, x_hi = rep.roots
        assert 0.0 < x_lo < x_hi
        for y in rep.roots:
            assert abs(ratio_map2(params_symmetric_cycle, y) - y) <= 1e-10 * max(1.0, y)
            assert abs(ratio_map(params_symmetric_cycle, y) - y) > 1e-3
        assert ratio_map(params_symmetric_cycle, x_hi) == pytest.approx(x_lo, rel=1e-9)
        assert ratio_map(params_symmetric_cycle, x_lo) == pytest.approx(x_hi, rel=1e-9)
        # attractive pair
        d = ratio_map_deriv(params_symmetric_cycle, x_lo) * ratio_map_deriv(params_symmetric_cycle, x_hi)
        assert abs(d) < 1.0

    def test_no_roots_above_threshold(self):
        p = BoltzmannParams(1.0, 0.9)
        assert solve_two_cycles(p).roots == ()
        assert cycle_thresholds(p.b).star_minus is None

    def test_b_one_discriminant_exactly_zero(self):
        rep = solve_two_cycles(BoltzmannParams(2.0, 1.0))
        assert rep.discriminant == 0.0
        assert rep.roots == ()  # the merged root is negative there

    def test_boundary_gives_single_degenerate_root(self):
        th = cycle_thresholds(0.5)
        p = BoltzmannParams(math.sqrt(th.star_plus), 0.5)
        rep = solve_two_cycles(p)
        assert rep.degenerate
        (x1,) = rep.roots
        assert x1 > 0.0
        # merged pair sits on a fixed point with derivative -1
        assert abs(ratio_map(p, x1) - x1) <= 1e-5 * max(1.0, x1)
        assert ratio_map_deriv(p, x1) == pytest.approx(-1.0, abs=1e-5)

    def test_sign_dichotomy_on_random_grid(self, rng):
        for _ in range(200):
            b = float(10.0 ** rng.uniform(-0.8, 0.5))
            a = float(10.0 ** rng.uniform(-0.8, 0.8))
            p = BoltzmannParams(a, b)
            rep = solve_two_cycles(p)
            th = cycle_thresholds(p.b)
            expect_positive = (
                th.star_minus is not None and th.star_minus < a * a < th.star_plus
            )
            if expect_positive:
                assert rep.discriminant > 0.0
                assert rep.b_coeff < 0.0
                assert len(rep.roots) == 2
            elif abs(b - 1.0) > 1e-12 and th.star_minus is not None and not (
                abs(a * a - th.star_minus) < 1e-9 or abs(a * a - th.star_plus) < 1e-9
            ):
                assert rep.discriminant < 0.0
                assert rep.roots == ()

    def test_underflowing_degenerate_window_is_a_range_error(self):
        # B < 0 but 1e-14 B^2 underflows to 0: the window would call an
        # underflowed discriminant a merged pair, a root the lift rejects
        with pytest.raises(ParameterRangeError, match="window"):
            solve_two_cycles(BoltzmannParams(1.3244975993085942e-97, 2.812241467639329e-35))

    def test_roots_over_the_extreme_box_are_period_two(self):
        rng = random.Random(1)
        roots = 0
        for _ in range(20000):
            j1, j2 = rng.uniform(-345, 345), rng.uniform(-86, 86)
            p = derive_params(Couplings(j1, j2, 1.0))
            try:
                rep = solve_two_cycles(p)
            except ParameterRangeError:
                # b > 1: the ratio map is increasing and has no two-cycle to overflow
                assert j2 < 0.0, (j1, j2)
                continue
            for y in rep.roots:
                assert abs(ratio_map2(p, y) - y) <= 1e-8 * y, (p, y)
                roots += 1
        assert roots > 1000


class TestCycleThresholds:
    def test_values_at_half(self):
        th = cycle_thresholds(0.5)
        assert th.star_minus == pytest.approx(0.102993, rel=2e-5)
        assert th.star_plus == pytest.approx(9.70951, rel=2e-5)
        # the two star thresholds are exact reciprocals
        assert th.star_minus * th.star_plus == pytest.approx(1.0, rel=1e-12)
        assert th.outer_minus <= th.star_minus < th.star_plus <= th.outer_plus

    def test_merge_at_critical_b(self):
        th = cycle_thresholds(math.sqrt(1.0 / 3.0))
        assert th.star_minus == pytest.approx(th.star_plus, rel=1e-7)

    def test_absent_above_critical_b(self):
        for b in (0.9, 1.0, 1.5):
            th = cycle_thresholds(b)
            assert th.star_minus is None and th.star_plus is None
        # outer pair exists a bit beyond the star pair
        assert cycle_thresholds(0.6).outer_minus is not None
        assert cycle_thresholds(0.6).star_minus is None

    def test_ordering_when_both_present(self, rng):
        for _ in range(50):
            b = float(rng.uniform(0.1, math.sqrt(1.0 / 3.0) - 1e-6))
            th = cycle_thresholds(b)
            assert th.outer_minus <= th.star_minus < th.star_plus <= th.outer_plus

    def test_range_at_extreme_b(self):
        # the thresholds scale as b^-6: below b ~ 5.3e-52 they leave the
        # double range, which once gave 0 and inf, or a ZeroDivisionError
        for b in (1e-52, 1e-60):
            with pytest.raises(ParameterRangeError):
                cycle_thresholds(b)
        th = cycle_thresholds(1e-51)
        assert 0.0 < th.outer_minus <= th.star_minus < th.star_plus <= th.outer_plus < math.inf
        assert th.star_minus * th.star_plus == pytest.approx(1.0, rel=1e-12)
        # b**4 overflows a double here; no threshold exists above b = 1
        assert cycle_thresholds(1e100) == cycle_thresholds(1.5)


class TestLifts:
    def test_unit_fixed_point(self):
        p = BoltzmannParams(1.0, 1.0)
        u = lift_fixed_point(p, 1.0)
        assert u == (0.25, 0.25, 0.25, 0.25)
        assert recurrence_step(p, u) == u

    def test_lift_is_on_slice_and_fixed(self, params_three_roots):
        for r in solve_fixed_points(params_three_roots).roots:
            u = lift_fixed_point(params_three_roots, r.x)
            assert symmetric_residual(u) == 0.0
            assert recurrence_residual(params_three_roots, u) <= 1e-9

    def test_lift_rejects_non_fixed_ratio(self, params_three_roots):
        with pytest.raises(DomainError):
            lift_fixed_point(params_three_roots, 2.0)

    def test_two_cycle_lift(self, params_symmetric_cycle):
        p = params_symmetric_cycle
        rep = solve_two_cycles(p)
        for y in rep.roots:
            u = lift_two_cycle(p, y)
            assert symmetric_residual(u) == 0.0
            w1 = recurrence_step(p, u)
            w2 = recurrence_step(p, w1)
            scale = u.max_norm()
            assert maxdiff(w2, u) / scale <= 1e-9
            assert maxdiff(w1, u) / scale > 1e-3
            partner = lift_two_cycle(p, ratio_map(p, y))
            assert maxdiff(w1, partner) / partner.max_norm() <= 1e-9

    def test_lifts_match_closed_forms(self, params_three_roots, params_symmetric_cycle):
        cases = [params_three_roots, params_symmetric_cycle, BoltzmannParams(1e-4, 0.01)]
        cases += [derive_params(Couplings(j1, j2, t)) for j1, j2, t in DIAGNOSE_POINTS]
        for p in cases:
            for r in solve_fixed_points(p).roots:
                u = lift_fixed_point(p, r.x)
                assert (u.u1, u.u2) == pytest.approx(closed_form_fixed_lift(p, r.x), rel=1e-14)
            for y in solve_two_cycles(p).roots:
                u = lift_two_cycle(p, y)
                assert (u.u1, u.u2) == pytest.approx(closed_form_two_cycle_lift(p, y), rel=1e-12)

    def test_fixed_lift_past_an_overflowing_closed_form(self):
        # (b + 1/(b x))**2 overflows in the closed form; the state does not
        p = BoltzmannParams(1e-60, 1e20)
        (root,) = solve_fixed_points(p).roots
        with pytest.raises(OverflowError):
            closed_form_fixed_lift(p, root.x)
        u = lift_fixed_point(p, root.x)
        assert u == pytest.approx((1e-300, 1e-100, 1e-100, 1e-300), rel=1e-13)
        assert recurrence_residual(p, u) <= 1e-15

    def test_lift_past_the_double_range_raises(self):
        p = BoltzmannParams(1e-100, 1e10)  # u1 near 1e-360
        (root,) = solve_fixed_points(p).roots
        with pytest.raises(ParameterRangeError):
            lift_fixed_point(p, root.x)

    def test_lift_sweep_fixes_or_raises_range_error(self):
        # log-uniform weights over the whole accepted range and near 1; every
        # lift either is periodic to 1e-12 in each component or is a
        # numeric-range error
        rng = random.Random(14)
        lifted = 0
        for k in range(400):
            la, lb = (150.0, 37.5) if k % 2 else (5.0, 2.0)
            try:
                p = BoltzmannParams(10.0 ** rng.uniform(-la, la), 10.0 ** rng.uniform(-lb, lb))
                fixed = [r.x for r in solve_fixed_points(p).roots]
                cycles = list(solve_two_cycles(p).roots)
            except ParameterRangeError:
                continue
            for n, lift, ratios in ((1, lift_fixed_point, fixed), (2, lift_two_cycle, cycles)):
                for x in ratios:
                    try:
                        u = lift(p, x)
                    except ParameterRangeError:
                        continue
                    w = u
                    for _ in range(n):
                        w = recurrence_step(p, w)
                    assert all(abs(wi - ui) <= 1e-12 * ui for wi, ui in zip(w, u))
                    lifted += 1
        assert lifted > 300

    def test_two_cycle_lift_rejects_fixed_ratio(self, params_symmetric_cycle):
        # 1.0 is the fixed ratio at a = 1, b = 0.5: it satisfies the
        # two-generation condition too, but is no period-two ratio
        with pytest.raises(DomainError, match="fixed ratio"):
            lift_two_cycle(params_symmetric_cycle, 1.0)

    def test_lifts_check_tiny_ratios_relatively(self):
        # ratio_map(1e-12) is 1.4e-10 here: 140 times off, yet within an absolute 1e-8
        with pytest.raises(DomainError):
            lift_fixed_point(derive_params(TINY_RATIOS), 1e-12)
        p = BoltzmannParams(1e-4, 0.01)
        y = solve_two_cycles(p).roots[0]
        assert y < 2e-8
        lift_two_cycle(p, y)
        with pytest.raises(DomainError):
            lift_two_cycle(p, 0.5 * y)


class TestCriticalTemperature:
    def test_exact_values(self):
        assert critical_temperature(math.log(3.0) / 2.0) == 1.0
        assert critical_temperature(-math.log(3.0)) == 2.0
        assert critical_temperature(0.0) is None

    def test_b4_is_nine_at_tc(self):
        for j2 in (0.3, 1.0, 2.4):
            tc = critical_temperature(j2)
            b_tilde = math.exp(4.0 * j2 / tc)
            assert b_tilde == pytest.approx(9.0, rel=1e-12)
        for j2 in (-0.3, -1.7):
            tc = critical_temperature(j2)
            b_tilde = math.exp(4.0 * j2 / tc)
            assert b_tilde == pytest.approx(1.0 / 9.0, rel=1e-12)


class TestCriticalCurve:
    def test_matches_thresholds_at_half(self):
        # choose (j2, beta) with b = exp(j2 beta) = 0.5
        beta = 2.0
        j2 = math.log(0.5) / beta
        s = critical_curve(j2, beta)
        th = cycle_thresholds(0.5)
        assert math.exp(2.0 * s.j1_plus * beta) == pytest.approx(th.star_plus, rel=1e-12)
        assert math.exp(2.0 * s.j1_minus * beta) == pytest.approx(th.star_minus, rel=1e-12)
        # the two branches are mirror images in j1
        assert s.j1_plus == pytest.approx(-s.j1_minus, rel=1e-12)

    def test_absent_above_critical_temperature(self):
        j2 = -1.0
        tc = critical_temperature(j2)
        s = critical_curve(j2, 1.0 / (1.5 * tc))
        assert s.j1_plus is None and s.j1_minus is None

    def test_degenerate_at_tc(self):
        j2 = -1.0
        tc = critical_temperature(j2)
        s = critical_curve(j2, 1.0 / tc)
        assert s.j1_plus == pytest.approx(s.j1_minus, abs=1e-7)

    def test_roundtrip_discriminant_zero(self):
        beta = 1.25
        j2 = math.log(0.4) / beta
        s = critical_curve(j2, beta)
        for j1 in (s.j1_plus, s.j1_minus):
            rep = solve_two_cycles(derive_params(Couplings(j1, j2, 1.0 / beta)))
            assert abs(rep.discriminant) <= 1e-8 * rep.b_coeff**2

    def test_cold_curve_where_b6_underflows(self):
        # b = e^-200: b^6 underflows, and the threshold (mid + r)/(8 b^6) with
        # it; in logs, j1+ = (log(mid + r) - log 8)/(2 beta) - 3 j2
        s = critical_curve(-2.0, 100.0)
        assert s.j1_plus == pytest.approx(6.0 - math.log(4.0) / 200.0, rel=1e-15)
        assert s.j1_minus == -s.j1_plus

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_tabulate_rejects_bad_temperature(self, t):
        with pytest.raises(DomainError, match="temperature"):
            tabulate_critical_curves([-1.0], temperature=t)

    def test_tabulate_handles_absent(self):
        rows = tabulate_critical_curves(np.linspace(-2.0, -0.1, 5), temperature=0.8)
        assert len(rows) == 5
        assert any(r.j1_plus is not None for r in rows)
        hot = tabulate_critical_curves(np.linspace(-0.2, -0.1, 3), temperature=5.0)
        assert all(r.j1_plus is None and r.j1_minus is None for r in hot)


class TestPhaseCounts:
    def test_hot_positive_j2(self):
        j2 = 1.0
        tc = critical_temperature(j2)
        for t in (tc, 1.2 * tc, 5.0):
            assert phase_counts(Couplings(0.05, j2, t)) == (1, 0)

    def test_hot_negative_j2(self):
        j2 = -1.0
        tc = critical_temperature(j2)
        para, comm2 = phase_counts(Couplings(0.3, j2, tc * 1.000001))
        assert (para, comm2) == (1, 0)
        # at tc exactly with j1 = 0 the merged threshold equals a^2 = 1:
        # the degenerate corner carries the single (merged) two-cycle point
        para, comm2 = phase_counts(Couplings(0.0, j2, tc))
        assert para == 1 and comm2 == 1
        # off the merged point there is none
        para, comm2 = phase_counts(Couplings(0.3, j2, tc))
        assert para == 1 and comm2 == 0

    def test_cold_positive_j2_where_the_quadratic_overflows(self):
        # b > 1 has no two-cycle; the quadratic's coefficients overflow here
        c = Couplings(232.9288032071753, 9.71014349621855, 1)
        assert phase_counts(c) == (1, 0)
        assert solve_two_cycles(derive_params(c)).roots == ()

    def test_cycle_window(self):
        # b = 0.5 at T = 1, a = 1: inside the star window
        c = Couplings(0.0, math.log(0.5), 1.0)
        assert phase_counts(c) == (1, 2)

    def test_three_phase_window(self, params_three_roots):
        p = params_three_roots
        t = 1.0
        c = Couplings(math.log(p.a), math.log(p.b), t)
        assert phase_counts(c) == (3, 0)

    def test_counts_equal_solver_root_counts(self, rng):
        n = 500
        wide = rng.uniform([-3.0, -3.0, 0.1], [3.0, 3.0, 4.0], size=(n, 3))
        # b^4 from 5e8 to 1e52, where the two smallest fixed ratios can both
        # fall below 1e-8
        cold = np.column_stack(
            [rng.uniform(-3.0, 3.0, n), rng.uniform(1.0, 3.0, n), rng.uniform(0.1, 0.2, n)]
        )
        # a^2 on the star thresholds, where the two-cycle pair merges
        edges = [
            (0.5 * math.log(a2), math.log(b), 1.0)
            for b in np.linspace(0.02, 0.577, 200).tolist()
            for a2 in (cycle_thresholds(b).star_minus, cycle_thresholds(b).star_plus)
        ]
        for j1, j2, t in np.vstack([wide, cold, edges]).tolist():
            c = Couplings(j1, j2, t)
            p = derive_params(c)
            counts = (len(solve_fixed_points(p).roots), len(solve_two_cycles(p).roots))
            assert phase_counts(c) == counts, (j1, j2, t)

