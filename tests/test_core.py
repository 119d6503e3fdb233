import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyphase import (
    BoltzmannParams,
    Couplings,
    DomainError,
    ParameterRangeError,
    StateVector,
    derive_params,
    ferro_constraint,
    ferro_residual,
    iterate,
    normalize,
    periodic_state,
    ratio_map,
    ratio_map_deriv,
    recurrence_step,
    symmetric_residual,
)

from cayleyphase.core import bracketed_root
from cayleyphase.scan import _starts_for_seeds

from conftest import maxdiff
from oracles import ratio_map2

weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
components = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
scales = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestDeriveParams:
    def test_identity_case(self):
        p = derive_params(Couplings(0.0, 0.0, 1.0))
        assert (p.a, p.b, p.alpha, p.b_tilde) == (1.0, 1.0, 1.0, 1.0)

    def test_direct_substitution(self):
        p = derive_params(Couplings(math.log(2.0), 0.0, 1.0))
        assert p.a == pytest.approx(2.0, rel=1e-15)
        assert p.b == 1.0

    def test_high_precision_exponential(self):
        p = derive_params(Couplings(1.0, 1.0, 0.5))
        assert p.a == pytest.approx(math.exp(2.0), rel=1e-14)
        assert p.b_tilde == pytest.approx(2980.9579870417283, rel=1e-13)

    def test_overflow_rejected(self):
        with pytest.raises(ParameterRangeError):
            derive_params(Couplings(500.0, 0.0, 1.0))
        with pytest.raises(ParameterRangeError):
            derive_params(Couplings(0.0, -200.0, 0.25))
        # ints past the double range, as a JSON config can give them
        for j1, j2 in ((10**400, 0.0), (0.0, -(10**400))):
            with pytest.raises(ParameterRangeError, match="finite"):
                Couplings(j1, j2, 1.0)
        # b itself is accepted; b**4 overflows (or underflows) a double
        for b in (1e80, 1e-80):
            with pytest.raises(ParameterRangeError, match="b\\*\\*4"):
                BoltzmannParams(1.0, b)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ParameterRangeError):
            Couplings(0.0, 0.0, 0.0)
        with pytest.raises(ParameterRangeError):
            Couplings(0.0, 0.0, -1.0)
        with pytest.raises(ParameterRangeError):
            Couplings(0.0, 0.0, 10**400)


class TestRecurrenceStep:
    def test_all_weights_one(self):
        p = BoltzmannParams(1.0, 1.0)
        w = recurrence_step(p, StateVector(1, 1, 1, 1))
        assert w == (4.0, 4.0, 4.0, 4.0)

    def test_direct_substitution(self):
        p = BoltzmannParams(2.0, 1.0)
        w = recurrence_step(p, StateVector(1, 1, 1, 1))
        assert w == (8.0, 2.0, 2.0, 8.0)

    def test_hand_checked_b2(self):
        p = BoltzmannParams(1.0, 2.0)
        w = recurrence_step(p, StateVector(1, 1, 1, 1))
        assert w == (6.25, 6.25, 6.25, 6.25)

    def test_overflow_names_component(self):
        p = BoltzmannParams(1e100, 1.0)
        with pytest.raises(ParameterRangeError, match="u1"):
            recurrence_step(p, StateVector(1e120, 1.0, 1.0, 1.0))

    def test_underflow_names_component(self):
        # a zero weight is as far outside the double range as an infinite one
        p = BoltzmannParams(1e-150, 1.0)
        with pytest.raises(ParameterRangeError, match="u1"):
            recurrence_step(p, StateVector(1e-100, 1e-100, 1.0, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(a=weights, b=weights, c=st.tuples(components, components, components, components), lam=scales)
    def test_degree2_homogeneity(self, a, b, c, lam):
        p = BoltzmannParams(a, b)
        w = recurrence_step(p, StateVector(*c))
        ws = recurrence_step(p, StateVector(*(lam * x for x in c)))
        for wi, wsi in zip(w, ws):
            assert wsi == pytest.approx(lam * lam * wi, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(a=weights, b=weights, r1=components, r2=components)
    def test_symmetric_slice_invariant(self, a, b, r1, r2):
        p = BoltzmannParams(a, b)
        u = StateVector(r1, r2, r2, r1)
        w = recurrence_step(p, u)
        assert symmetric_residual(w) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(a=weights, b=weights, r1=components, r2=components)
    def test_slice_reduction_matches_ratio_map(self, a, b, r1, r2):
        p = BoltzmannParams(a, b)
        w = recurrence_step(p, StateVector(r1, r2, r2, r1))
        assert w.u1 / w.u2 == pytest.approx(ratio_map(p, r1 / r2), rel=1e-12)


class TestRatioMap:
    def test_constant_when_b_is_one(self):
        p = BoltzmannParams(1.0, 1.0)
        assert ratio_map(p, 5.0) == 1.0
        p2 = BoltzmannParams(2.0, 1.0)
        assert ratio_map(p2, 7.0) == 4.0

    def test_unit_fixed_point_by_symmetry(self):
        p = BoltzmannParams(1.0, math.sqrt(3.0))
        assert ratio_map(p, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_two_step_composition(self):
        p = BoltzmannParams(1.0, 1.0)
        assert ratio_map2(p, 3.0) == 1.0
        p2 = BoltzmannParams(1.3, 0.7)
        x = 0.8
        assert ratio_map2(p2, x) == ratio_map(p2, ratio_map(p2, x))

    def test_monotone_direction(self):
        xs = np.geomspace(1e-3, 1e3, 200)
        p_up = BoltzmannParams(0.8, 1.5)
        assert np.all(np.diff(ratio_map(p_up, xs)) > 0)
        p_down = BoltzmannParams(0.8, 0.6)
        assert np.all(np.diff(ratio_map(p_down, xs)) < 0)
        # the two-step map never decreases
        assert np.all(np.diff(ratio_map2(p_down, xs)) >= 0)


class TestRatioMapDeriv:
    def test_zero_at_b_one(self):
        p = BoltzmannParams(3.0, 1.0)
        assert ratio_map_deriv(p, 0.7) == 0.0

    def test_closed_form_value(self):
        p = BoltzmannParams(1.0, math.sqrt(2.0))
        assert ratio_map_deriv(p, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-13)

    @pytest.mark.parametrize("a,b", [(0.7, 1.8), (1.4, 0.45), (2.2, 2.6), (1.0, 0.9)])
    def test_matches_finite_differences(self, a, b):
        p = BoltzmannParams(a, b)
        for x in np.geomspace(1e-3, 1e3, 61):
            h = 1e-6 * x
            fd = (ratio_map(p, x + h) - ratio_map(p, x - h)) / (2.0 * h)
            assert ratio_map_deriv(p, x) == pytest.approx(fd, rel=1e-5)

    def test_finite_where_its_factors_overflow(self):
        # at b^2 = 1e50, x = 1e160, both (b^4 - 1)(1 + b^2 x) and (b^2 + x)^3
        # overflow; g' = 2 g (b^4 - 1)/((b^2 + x)(1 + b^2 x)) is about 2e-170
        p = BoltzmannParams(1.0, 1e25)
        assert ratio_map_deriv(p, 1e160) == pytest.approx(2e-170, rel=1e-12)


class TestFerroConstraint:
    def test_unit_weights(self):
        p = BoltzmannParams(1.0, 1.0)
        assert ferro_constraint(p, 0.0) == 1.0
        for x in (0.3, 1.0, 4.2):
            assert ferro_constraint(p, x) == pytest.approx(1.0 + x, rel=1e-15)

    def test_substituted_value(self):
        p = BoltzmannParams(2.0, 2.0)
        assert ferro_constraint(p, 1.0) == pytest.approx(0.36698948192213054, rel=1e-14)

    def test_pole_raises(self):
        p = BoltzmannParams(1.0, 0.5)
        pole = p.alpha * p.b / (1.0 / p.b**2 - p.b**2)
        with pytest.raises(DomainError):
            ferro_constraint(p, pole)


class TestResiduals:
    def test_symmetric_examples(self):
        assert symmetric_residual(StateVector(1, 2, 2, 1)) == 0.0
        assert symmetric_residual(StateVector(1, 2, 2, 3)) == pytest.approx(2.0 / 3.0)

    @settings(max_examples=40, deadline=None)
    @given(r1=components, r2=components, lam=scales)
    def test_symmetric_scale_invariance(self, r1, r2, lam):
        u = StateVector(r1, r2, r2, r1)
        us = StateVector(*(lam * c for c in u))
        assert symmetric_residual(us) <= 1e-12
        v = StateVector(r1, r2, 2.0 * r2, r1)
        vs = StateVector(*(lam * c for c in v))
        assert symmetric_residual(vs) == pytest.approx(symmetric_residual(v), rel=1e-12)

    def test_ferro_residual_example(self):
        p = BoltzmannParams(1.0, 1.0)
        u = StateVector(1.0, 0.25, 0.25, 0.25)
        assert ferro_residual(p, u) == pytest.approx(0.5, rel=1e-14)

    def test_ferro_residual_zero_on_surface(self):
        p = BoltzmannParams(1.0, 1.0)
        # construct s14 = constraint(s23) by hand: v = (v1, v2, v3, v4)
        v2, v3 = 0.4, 0.3
        target = ferro_constraint(p, v2 + v3)
        v1 = 0.25
        v4 = target - v1
        u = StateVector(v1**2, v2**2, v3**2, v4**2)
        assert ferro_residual(p, u) <= 1e-15

    def test_ferro_residual_inf_past_pole(self):
        p = BoltzmannParams(1.0, 0.4)
        u = StateVector(1.0, 25.0, 25.0, 1.0)  # s23 far beyond the pole
        assert ferro_residual(p, u) == math.inf

    def test_ferro_residual_inf_at_pole(self):
        # s23 exactly at the pole, where ferro_constraint raises
        p = BoltzmannParams(1.0, 0.5)
        half = 0.5 * p.alpha * p.b / (1.0 / p.b**2 - p.b**2)
        assert math.sqrt(half * half) == half
        with pytest.raises(DomainError):
            ferro_constraint(p, 2.0 * half)
        assert ferro_residual(p, StateVector(1.0, half * half, half * half, 1.0)) == math.inf


class TestStateVector:
    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            StateVector(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            StateVector(1.0, -2.0, 1.0, 1.0)

    def test_max_norm(self):
        assert StateVector(4.0, 9.0, 1.0, 0.25).max_norm() == 9.0


class TestRangeErrorForm:
    # a state the arithmetic produced that leaves the double range is a range
    # error in one form, naming the component; a state a caller hands in that
    # is not positive and finite stays a domain error
    @pytest.mark.parametrize(
        "compute, expected",
        [
            (lambda: recurrence_step(BoltzmannParams(1e-150, 1.0), StateVector(1e-100, 1e-100, 1.0, 1.0)),
             "recurrence left the floating-point range in component u1"),
            (lambda: normalize(StateVector(1.0, 1e-200, 1.0, 1e200)),
             "rescaling left the floating-point range in component u2"),
            # the cold corner of the frustrated quadrant
            (lambda: iterate(derive_params(Couplings(1.0, -2.0, 0.03)), _starts_for_seeds([0])[0]),
             "trajectory left the floating-point range in component u2"),
        ],
        ids=["recurrence_step", "normalize", "iterate"],
    )
    def test_computed_state(self, compute, expected):
        with pytest.raises(ParameterRangeError, match=f"^{expected}$"):
            compute()

    def test_caller_state(self):
        with pytest.raises(DomainError, match="u1"):
            StateVector(0.0, 1.0, 1.0, 1.0)


class TestPeriodicState:
    def test_period_four_cycle_from_any_point_on_its_ray(self):
        p = derive_params(Couplings(1.0, -0.6, 0.3))
        out = iterate(p, StateVector(1.0, 0.618, 0.2718, 0.3141))
        assert out.period == 4
        s = out.attractor[0]
        u = periodic_state(p, s, 4)
        w = u
        for _ in range(4):
            w = recurrence_step(p, w)
        assert maxdiff(w, u) <= 1e-12 * u.max_norm()
        far = StateVector(*(1e-30 * c for c in s))
        assert periodic_state(p, far, 4) == pytest.approx(u, rel=1e-12)

    def test_rejects_period_below_one(self):
        with pytest.raises(DomainError):
            periodic_state(BoltzmannParams(1.0, 1.0), StateVector(1.0, 1.0, 1.0, 1.0), 0)


BRACKETS = pytest.mark.parametrize(
    "f,lo,hi,root",
    [
        (lambda x: math.log(x / 3e-200), 1e-300, 1e300, 3e-200),
        (lambda x: x * x - 2.0, 1.0, 1.5, math.sqrt(2.0)),
        (lambda x: (7.25 - x) * (x + 1.0) ** 3, 0.5, 1e6, 7.25),
    ],
    ids=["wide", "narrow", "cubic"],
)


def counting(f, calls: list):
    def counted(x):
        calls.append(x)
        return f(x)

    return counted


class TestBracketedRoot:
    @BRACKETS
    def test_converges_to_full_precision(self, f, lo, hi, root):
        assert bracketed_root(f, lo, hi) == pytest.approx(root, rel=4e-15, abs=0.0)

    @BRACKETS
    def test_evaluations_bounded_by_bisection(self, f, lo, hi, root):
        # halving log(hi/lo) down to one factor of two, then about 50
        # arithmetic halvings to 1e-15 relative, plus the two ends
        calls = []
        bracketed_root(counting(f, calls), lo, hi)
        geometric = max(0, math.ceil(math.log2(math.log2(hi) - math.log2(lo))))
        assert len(calls) <= geometric + 55

    def test_midpoint_on_the_root_does_not_stall(self, monkeypatch):
        # at (0, -ln 2, 1) the first geometric midpoint lands within rounding
        # of the root
        from cayleyphase import symmetric

        calls = []
        def counted(f, lo, hi):
            return bracketed_root(counting(f, calls), lo, hi)

        monkeypatch.setattr(symmetric, "bracketed_root", counted)
        symmetric.solve_fixed_points(derive_params(Couplings(0.0, -math.log(2.0), 1.0)))
        assert 0 < len(calls) <= 60

    def test_exact_zero_at_an_end(self):
        assert bracketed_root(lambda x: x - 2.0, 2.0, 5.0) == 2.0
        assert bracketed_root(lambda x: x - 5.0, 2.0, 5.0) == 5.0

    def test_arithmetic_midpoint_near_the_largest_double(self):
        # lo + hi overflows to inf here; halving each end first does not
        root = bracketed_root(lambda x: x - 1.7e308, 1e308, 1.79e308)
        assert root == pytest.approx(1.7e308, rel=1e-15)

    def test_adjacent_subnormal_ends(self):
        # 1e-15 * hi is 0 here, so only the midpoint landing on an end stops
        # the loop
        lo, hi = 5e-324, 1e-323
        assert bracketed_root(lambda x: -1.0 if x < hi else 1.0, lo, hi) == lo

    def test_rejects_bracket_without_sign_change(self):
        with pytest.raises(ValueError):
            bracketed_root(lambda x: x * x + 1.0, 0.1, 10.0)
        with pytest.raises(ValueError):
            bracketed_root(lambda x: math.nan if x > 1.0 else x - 3.0, 0.5, 10.0)

    def test_rejects_nan_inside_the_bracket(self):
        with pytest.raises(ValueError, match=r"f\(1\.7\d*\) is NaN"):
            bracketed_root(lambda x: math.nan if 1.5 < x < 2.0 else x - 2.5, 1.0, 3.0)


_LAZY_IMPORTS_PROBE = """
import contextlib, io, json, sys
import cayleyphase, cayleyphase.cli as cli

def loaded(name):
    return any(m == name or m.startswith(name + ".") for m in sys.modules)

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

seen = {"import": [m for m in ("scipy", "numpy", "concurrent.futures.process", "dataclasses", "inspect", "pickle") if loaded(m)]}
point = ("--j1", "0.5", "--j2", "-0.3", "--temperature", "1")
codes = [
    run("--version"),
    run("partition", *point, "--depth", "3"),
    run("curves", "--axis", "j2:-2:-0.1:5", "--temperature", "1"),
]
seen["numpy after closed forms"] = loaded("numpy")
ferro_points = [cayleyphase.Couplings(1.0, 0.15, 0.6), cayleyphase.Couplings(1.0, 1.5, 0.09)]
seen["ferro counts"] = [len(cayleyphase.solve_ferro_fixed_points(cayleyphase.derive_params(c))) for c in ferro_points]
seen["numpy after ferro"] = loaded("numpy")
seen["verify passed"] = all(r.passed for r in cayleyphase.run_verify())
seen["enumerated"] = [cayleyphase.enumerate_partition(cayleyphase.Couplings(0.8, -0.3, 1.1), n) > 0 for n in (1, 2, 3)]
seen["numpy after verify and enumeration"] = loaded("numpy")
codes.append(run("scan", "--axis", "j2:-1:0:2", *point[:2], "--temperature", "1", "--workers", "1"))
seen["pool after one-worker scan"] = loaded("concurrent.futures.process")
cayleyphase.scan._available_cpus = lambda: 2  # so the scan starts a thread on any machine
codes.append(run("scan", "--axis", "j2:-1:0:2", *point[:2], "--temperature", "1", "--workers", "2", "--format", "json"))
seen["pool after two-worker scan"] = [m for m in ("concurrent.futures", "multiprocessing") if loaded(m)]
codes.append(run("diagnose", *point))
seen["numpy.random after scan and diagnose"] = loaded("numpy.random")
seen["numpy major"] = int(sys.modules["numpy"].__version__.split(".")[0])
print(json.dumps({"codes": codes, **seen}))
"""


def test_imports_stay_lazy():
    # numpy loads only where an array is computed, and numpy.random never; a
    # scan starts its worker threads itself, so no pool loads, and pickle
    # does not load at import: the scan's
    # start vectors come from a pure-Python generator; the ferro solver runs
    # in plain floats, and the enumeration oracle and verify in exact integer
    # counts; the records are named tuples, so the CLI loads neither
    # dataclasses nor inspect
    r = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS_PROBE], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout)
    assert seen["codes"] == [0, 0, 0, 0, 0, 0]
    assert seen["import"] == []
    assert seen["numpy after closed forms"] is False
    assert seen["ferro counts"] == [2, 4]
    assert seen["numpy after ferro"] is False
    assert seen["verify passed"] is True
    assert seen["enumerated"] == [True, True, True]
    assert seen["numpy after verify and enumeration"] is False
    assert seen["pool after one-worker scan"] is False
    assert seen["pool after two-worker scan"] == []
    if seen["numpy major"] >= 2:  # numpy 1.x imports numpy.random with numpy itself
        assert seen["numpy.random after scan and diagnose"] is False


def test_build_ships_bytecode(tmp_path):
    # the build byte-compiles every module even where the import system may
    # not write .pyc files, and the built CLI then compiles none of them
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    lib = tmp_path / "lib"
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_py", "--build-lib", str(lib)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert build.returncode == 0, build.stderr
    package = lib / "cayleyphase"
    modules = sorted(path.stem for path in package.glob("*.py"))
    assert modules == sorted(path.stem for path in (root / "src" / "cayleyphase").glob("*.py"))
    cache = package / "__pycache__"
    assert sorted(path.name.split(".")[0] for path in cache.glob("*.pyc")) == modules
    run = subprocess.run(
        [sys.executable, "-v", "-m", "cayleyphase", "--version"],
        cwd=lib, env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "cayleyphase 0.1.0\n"
    # build_py builds no extension, so the kernel is the pure-Python twin:
    # every module of the package is imported
    loaded = sorted(
        Path(line.split("'")[1]).name.split(".")[0]
        for line in run.stderr.splitlines()
        if line.startswith("# code object from ") and str(cache) in line
    )
    assert loaded == modules
