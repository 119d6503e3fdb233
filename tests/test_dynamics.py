import importlib.machinery
import importlib.util
import inspect
import math
import shlex
import shutil
import subprocess
import sys
import sysconfig
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cayleyphase import (
    BoltzmannParams,
    Couplings,
    DomainError,
    ParameterRangeError,
    StateVector,
    classify_phase,
    derive_params,
    ferro_residual,
    iterate,
    lift_two_cycle,
    normalize,
    periodic_state,
    ratio_map,
    recurrence_step,
    solve_fixed_points,
    solve_two_cycles,
    symmetric_residual,
)

from cayleyphase._trajectory_py import APERIODIC, CYCLE, FIXED
from cayleyphase.dynamics import BURN_IN, P_MAX, TOL
from cayleyphase.scan import _starts_for_seeds

from conftest import DIAGNOSE_POINTS, HARD_KERNEL_CASES, TINY_RATIOS, TINY_RATIOS_EXACT, maxdiff, normalized
from oracles import SymmetricClass, multi_root_window, star_window, symmetric_attractor_class

ROOT = Path(__file__).resolve().parents[1]


class TestNormalize:
    def test_example(self):
        u = normalize(StateVector(2, 4, 8, 4))
        assert u == (0.25, 0.5, 1.0, 0.5)

    def test_idempotent(self):
        u = normalize(StateVector(0.3, 1.0, 0.2, 0.9))
        assert normalize(u) == u

    def test_scale_free(self):
        u = StateVector(0.7, 0.1, 0.4, 1.3)
        v = StateVector(*(8.0 * c for c in u))  # power of two: exact
        assert normalize(v) == normalize(u)

    def test_underflow_is_a_range_error(self):
        with pytest.raises(ParameterRangeError, match="u1"):
            normalize(StateVector(1e-200, 1.0, 1.0, 1e200))


class TestIterate:
    def test_unit_weights_collapse(self):
        p = BoltzmannParams(1.0, 1.0)
        out = iterate(p, StateVector(0.3, 1.7, 0.9, 0.2))
        assert out.kind == "fixed-direction"
        assert out.attractor[0] == (1.0, 1.0, 1.0, 1.0)

    def test_slice_start_converges_for_b_above_one(self):
        p = BoltzmannParams(0.8, 1.5)
        out = iterate(p, StateVector(2.0, 0.3, 0.3, 2.0))
        assert out.kind == "fixed-direction"
        (root,) = [r.x for r in solve_fixed_points(p).roots]
        limit = out.attractor[-1]
        assert limit.u1 / limit.u2 == pytest.approx(root, rel=1e-8)

    def test_slice_two_cycle_detected(self, params_symmetric_cycle):
        p = params_symmetric_cycle
        out = iterate(p, StateVector(1.0, 0.37, 0.37, 1.0))
        assert out.kind == "cycle"
        assert out.period == 2
        ratios = sorted(s.u1 / s.u2 for s in out.attractor)
        roots = solve_two_cycles(p).roots
        for r, y in zip(ratios, roots):
            assert r == pytest.approx(y, rel=1e-8)
        # attractor states match the lifted orbit after normalisation
        lifted = sorted(
            (normalized(lift_two_cycle(p, y)) for y in roots), key=lambda t: t[0]
        )
        got = sorted((normalized(s) for s in out.attractor), key=lambda t: t[0])
        for g, l in zip(got, lifted):
            assert maxdiff(g, l) <= 1e-8

    def test_slice_is_trapping(self):
        p = BoltzmannParams(1.3, 0.6)
        u = normalize(StateVector(0.8, 0.25, 0.25, 0.8))
        for _ in range(50):
            u = normalize(recurrence_step(p, u))
            assert symmetric_residual(u) <= 1e-10

    def test_scale_invariant_labels(self):
        p = derive_params(Couplings(1.0, 0.15, 0.6))
        base = iterate(p, StateVector(1.0, 0.3, 0.2, 0.05))
        for lam in (1e-3, 1e3):
            out = iterate(p, StateVector(*(lam * c for c in (1.0, 0.3, 0.2, 0.05))))
            assert out.kind == base.kind
            assert out.period == base.period
            assert maxdiff(out.attractor[-1], base.attractor[-1]) <= 1e-9

    def test_deterministic_replay(self):
        p = derive_params(Couplings(0.6, -0.45, 0.45))
        u0 = StateVector(1.0, 0.37, 0.11, 0.92)
        a = iterate(p, u0, max_iter=3000)
        b = iterate(p, u0, max_iter=3000)
        assert a == b

    def test_parameter_validation(self):
        p = BoltzmannParams(1.0, 1.0)
        u = StateVector(1, 1, 1, 1)
        with pytest.raises(DomainError):
            iterate(p, u, max_iter=10)
        with pytest.raises(DomainError, match="max_iter"):
            iterate(p, u, max_iter=sys.maxsize + 1)  # past the kernel's C integer
        # the return tolerance, burn-in and period cap are constants
        assert list(inspect.signature(iterate).parameters) == ["p", "u0", "max_iter"]

    def test_period_of_each_kind(self):
        cases = [
            (Couplings(1.0, 0.15, 0.6), (1.0, 0.3, 0.2, 0.05), "fixed-direction", 1),
            (Couplings(1.0, -0.6, 0.3), (1.0, 0.618, 0.2718, 0.3141), "cycle", 4),
            (Couplings(1.0, -0.8, 2.0), (1.0, 0.37, 0.11, 0.92), "aperiodic", 0),
        ]
        for c, u0, kind, period in cases:
            out = iterate(derive_params(c), StateVector(*u0), max_iter=5000)
            assert (out.kind, out.period) == (kind, period)
            assert len(out.attractor) == max(period, 1)

    def test_matches_manual_stepping(self):
        p = derive_params(Couplings(0.4, -0.5, 0.7))
        u0 = StateVector(0.9, 0.2, 0.6, 0.1)
        out = iterate(p, u0, max_iter=250)
        u = normalize(u0)
        for _ in range(out.iterations_used):
            u = normalize(recurrence_step(p, u))
        assert maxdiff(u, out.attractor[-1]) == 0.0


@pytest.fixture(scope="module")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel: the importable one, else a fresh build of
    ``_trajectory.c``; skips only where no C compiler or ``Python.h`` exists."""
    try:
        from cayleyphase import _trajectory

        return _trajectory
    except ImportError:
        pass
    out = tmp_path_factory.mktemp("ext")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    # the extension is optional, so a failed compile still exits 0
    built = [
        path
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
        for path in (out / "cayleyphase").glob("_trajectory" + suffix)
    ]
    if not built:
        pytest.skip(f"cannot build the compiled kernel here:\n{build.stderr[-500:]}")
    spec = importlib.util.spec_from_file_location("cayleyphase._trajectory", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FERRO = ((1.0, 0.15, 0.6), (1.0, 0.3, 0.2, 0.05))  # fixed at step 9
_SLICE2 = ((0.0, -0.69, 1.0), (1.0, 0.37, 0.37, 1.0))
_LOCK4 = ((1.0, -0.6, 0.3), (1.0, 0.618, 0.2718, 0.3141))
_C1_MAX = ((-0.10900364533813267, 0.8752956962632124, 2.660675840715349), (1.0, 0.2, 0.5, 0.1))
_FIXED, _APERIODIC, _TWO, _FOUR = (FIXED, 1), (APERIODIC, 0), (CYCLE, 2), (CYCLE, 4)
# (point, start), max_iter, burn_in, p_max, expected (kind, period)
BACKEND_CASES = [
    (((0.6, -0.45, 0.45), (1.0, 0.37, 0.11, 0.92)), 5000, 200, 64, _FOUR),
    (_FERRO, 5000, 200, 64, _FIXED),
    (_SLICE2, 5000, 200, 64, _TWO),
    (((0.25, 0.9, 1.0), (0.2, 1.0, 0.8, 0.3)), 5000, 200, 64, _TWO),
    # p_max at the ring capacity, on a cycle and on an aperiodic run
    (((1.0, -1.0, 0.5), (1.0, 0.37, 0.11, 0.92)), 5000, 200, 256, _FOUR),
    (((1.0, -0.8, 2.0), (1.0, 0.37, 0.11, 0.92)), 5000, 200, 256, _APERIODIC),
    # the period-1 test survives p_max 0 (a one-slot ring) and 1
    (_FERRO, 5000, 200, 0, _FIXED),
    (_FERRO, 5000, 200, 1, _FIXED),
    (_SLICE2, 5000, 200, 0, _APERIODIC),
    (_SLICE2, 5000, 200, 1, _APERIODIC),
    # burn_in past max_iter: no cycle test, but the fixed test runs
    (_SLICE2, 300, 400, 64, _APERIODIC),
    (_FERRO, 300, 400, 64, _FIXED),
    # a period of exactly p_max is found, one above it is not
    (_SLICE2, 5000, 200, 2, _TWO),
    (_LOCK4, 5000, 200, 4, _FOUR),
    (_LOCK4, 5000, 200, 3, _APERIODIC),
    # c1 stays at the max, 1.0, for 1,758 steps: every candidate agrees
    # there and the reject must read another component
    (_C1_MAX, 5000, 200, 64, _TWO),
    (_C1_MAX, 5000, 200, 256, _TWO),
    # aperiodic at p_max 256 that wraps the ring many times
    (((1.0, -0.4, 0.36), (1.0, 0.2, 0.5, 0.1)), 5000, 1, 256, _APERIODIC),
]


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))


# BoltzmannParams' range, its corners drawn on their own: a in [1e-150, 1e150]
# and b with b^4 in it too, from the least to the largest such double
_B_LO, _B_HI = 3.1622776601683796e-38, 3.162277660168379e37
_WEIGHTS = st.one_of(st.sampled_from([1e-150, 1.0, 1e150]), _log_uniform(1e-150, 1e150))
_B_WEIGHTS = st.one_of(st.sampled_from([_B_LO, 1.0, _B_HI]), _log_uniform(_B_LO, _B_HI))
# a start's non-leading component: 0.0, subnormal, or log-uniform up to 1
_UNIT_COMPONENTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.0]),
    st.floats(5e-324, 2.2250738585072014e-308),
    _log_uniform(1e-300, 1.0),
)


def _backend_case_args(case):
    ((j1, j2, t), u0), max_iter, burn_in, p_max, _ = case
    p = derive_params(Couplings(j1, j2, t))
    return (p.a, p.b, *u0, max_iter, 1e-12, burn_in, p_max)


def _hard_case_args(case):
    point, seed, max_iter, _ = case
    p = derive_params(Couplings(*point))
    return (p.a, p.b, *_seeded_start(seed), max_iter, TOL, BURN_IN, P_MAX)


class TestBackends:
    def test_backends_agree_bitwise(self, compiled_kernel):
        from cayleyphase import _trajectory_py as py

        assert compiled_kernel.BACKEND == "compiled"
        for case in BACKEND_CASES:
            args = _backend_case_args(case)
            out = py.run_trajectory(*args)
            assert out == compiled_kernel.run_trajectory(*args), args
            assert out[:2] == case[-1], args
            assert len(out[4]) == max(out[1], 1)
            if case[0] == _C1_MAX:
                assert out[2] == 1758 and all(state[0] == 1.0 for state in out[4])
        for name, case in HARD_KERNEL_CASES.items():
            args = _hard_case_args(case)
            out = py.run_trajectory(*args)
            assert out == compiled_kernel.run_trajectory(*args), name
            assert out[:3] == case[-1], name
            if name.startswith("underflow"):
                assert 0.0 in out[4][-1], name

    def test_kernels_are_thread_safe(self, compiled_kernel):
        # both kernels, called from 4 threads at once (more than the CPUs
        # a scan uses here) on a short switch interval, give each call's
        # serial result bit for bit; the compiled calls, which run without
        # the interpreter lock and take microseconds, 20 times over
        from cayleyphase import _trajectory_py as py

        args = [_backend_case_args(case) for case in BACKEND_CASES]
        args += [_hard_case_args(case) for case in HARD_KERNEL_CASES.values()]
        calls = [(compiled_kernel, a) for a in args] * 20 + [(py, a) for a in args]
        serial = [repr(kernel.run_trajectory(*a)) for kernel, a in calls]
        results = [None] * 4

        def run(k):
            # each thread starts at another call, so different calls overlap
            shift = k * len(calls) // 4
            out = [repr(kernel.run_trajectory(*a)) for kernel, a in calls[shift:] + calls[:shift]]
            results[k] = out[len(calls) - shift :] + out[: len(calls) - shift]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * 4

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        point=st.one_of(
            # the benchmark's scan grids
            st.tuples(st.just(1.0), st.floats(-0.8, 0.8), st.floats(0.25, 4.0)),
            # wide couplings, up to the edge of the weight range
            st.tuples(st.floats(-345.0, 345.0), st.floats(-86.0, 86.0), st.just(1.0)),
        ),
        seed=st.integers(0, 2**32 - 1),
        max_iter=st.integers(1, 500),
    )
    def test_backends_agree_on_drawn_couplings(self, compiled_kernel, point, seed, max_iter):
        from cayleyphase import _trajectory_py as py

        try:
            p = derive_params(Couplings(*point))
        except ParameterRangeError:
            assume(False)
        args = (p.a, p.b, *_seeded_start(seed), max_iter, TOL, BURN_IN, P_MAX)
        outs = []
        for kernel in (py, compiled_kernel):
            try:
                outs.append(repr(kernel.run_trajectory(*args)))
            except Exception as exc:  # both must raise alike
                outs.append(type(exc))
        assert outs[0] == outs[1], args

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(
        a=_WEIGHTS,
        b=_B_WEIGHTS,
        lead=st.integers(0, 3),
        rest=st.lists(_UNIT_COMPONENTS, min_size=3, max_size=3),
    )
    # the four corners of the range, each with another component at 1
    @example(a=1e-150, b=_B_LO, lead=0, rest=[0.0, 5e-324, 1e-300])
    @example(a=1e-150, b=_B_HI, lead=1, rest=[0.0, 5e-324, 1e-300])
    @example(a=1e150, b=_B_LO, lead=2, rest=[0.0, 5e-324, 1e-300])
    @example(a=1e150, b=_B_HI, lead=3, rest=[0.0, 5e-324, 1e-300])
    def test_one_step_on_the_kernels_domain(self, compiled_kernel, a, b, lead, rest):
        # the domain iterate hands the kernels: a, b anywhere in
        # BoltzmannParams' range and a start of max-norm 1, whose other
        # components may be 0.0 or subnormal. One step divides by no zero,
        # keeps max-norm 1 and is the same on both kernels, bit for bit
        from cayleyphase import _trajectory_py as py

        BoltzmannParams(a, b)
        start = rest[:lead] + [1.0] + rest[lead:]
        args = (a, b, *start, 1, TOL, BURN_IN, P_MAX)
        out = py.run_trajectory(*args)
        assert max(out[4][-1]) == 1.0, args
        assert repr(compiled_kernel.run_trajectory(*args)) == repr(out), args

    def test_domain_corners_are_the_range_edges(self):
        # one ulp past each drawn corner, BoltzmannParams refuses
        for a, b in ((1e-150, _B_LO), (1e150, _B_HI)):
            BoltzmannParams(a, b)
            out = 0.0 if a < 1.0 else math.inf
            for past in ((math.nextafter(a, out), 1.0), (1.0, math.nextafter(b, out))):
                with pytest.raises(ParameterRangeError):
                    BoltzmannParams(*past)

    @pytest.mark.parametrize("p_max", [-1, 257])
    def test_ring_capacity_is_checked(self, compiled_kernel, p_max):
        from cayleyphase import _trajectory_py as py

        p = derive_params(Couplings(1.0, 0.15, 0.6))
        args = (p.a, p.b, 1.0, 0.3, 0.2, 0.05, 5000, TOL, BURN_IN, p_max)
        for kernel in (py, compiled_kernel):
            with pytest.raises(ValueError, match="p_max must be between 0 and 256"):
                kernel.run_trajectory(*args)

    def test_no_steps_is_an_aperiodic_start(self, compiled_kernel):
        # iterate asks for at least 100 steps; the kernels answer fewer alike
        from cayleyphase import _trajectory_py as py

        p = derive_params(Couplings(1.0, 0.15, 0.6))
        args = (p.a, p.b, 1.0, 0.3, 0.2, 0.05, 0, TOL, BURN_IN, P_MAX)
        for kernel in (py, compiled_kernel):
            assert kernel.run_trajectory(*args) == (py.APERIODIC, 0, 0, 0.0, [(1.0, 0.3, 0.2, 0.05)])

    def test_kernel_compiles_without_warnings(self):
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        include = Path(sysconfig.get_paths()["include"])
        if shutil.which(cc[0]) is None or not (include / "Python.h").exists():
            pytest.skip("no C compiler or no Python.h")
        source = ROOT / "src" / "cayleyphase" / "_trajectory.c"
        r = subprocess.run(
            [*cc, "-fsyntax-only", "-Wall", "-Wextra", "-Werror", f"-I{include}", str(source)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert r.returncode == 0, r.stderr


class TestClassifyPhase:
    def test_paramagnetic(self):
        p = derive_params(Couplings(0.1, 0.05, 3.0))
        out = iterate(p, StateVector(1.0, 0.3, 0.2, 0.05))
        label = classify_phase(p, out)
        assert label.phase == "paramagnetic"
        assert label.m1_residual <= 1e-6

    def test_ferromagnetic(self):
        p = derive_params(Couplings(1.0, 0.15, 0.6))
        out = iterate(p, StateVector(1.0, 0.3, 0.2, 0.05))
        label = classify_phase(p, out)
        assert label.phase == "ferromagnetic"
        assert label.m2_residual <= 1e-6
        assert label.m1_residual > 1e-3

    def test_fixed_point_scale_keeps_its_bits(self):
        # at period 1 the homogeneity lift is the one-step rescale
        # s / (|F(s)| / |s|) to the last bit
        starts = [
            StateVector(1.0, 0.3, 0.2, 0.05),
            StateVector(0.05, 0.2, 0.3, 1.0),
            StateVector(0.9, 1.0, 1.0, 0.9),
            StateVector(1.0, 0.618, 0.2718, 0.3141),
        ]
        fixed = 0
        for point in (*DIAGNOSE_POINTS, (1.0, 1.5, 0.09)):
            p = derive_params(Couplings(*point))
            for u0 in starts:
                out = iterate(p, u0)
                if out.kind != "fixed-direction":
                    continue
                s = out.attractor[-1]
                lam = recurrence_step(p, s).max_norm() / s.max_norm()
                assert periodic_state(p, s) == tuple(c / lam for c in s)
                fixed += 1
        assert fixed == 16

    def test_commensurate(self, params_symmetric_cycle):
        out = iterate(params_symmetric_cycle, StateVector(1.0, 0.4, 0.4, 1.0))
        label = classify_phase(params_symmetric_cycle, out)
        assert label.phase == "commensurate"
        assert label.period == 2

    def test_period_four_in_strong_competition(self):
        # the hallmark locked phase of strongly competing couplings
        p = derive_params(Couplings(1.0, -0.6, 0.3))
        out = iterate(p, StateVector(1.0, 0.618, 0.2718, 0.3141))
        label = classify_phase(p, out)
        assert label.phase == "commensurate"
        assert label.period == 4

    def test_cycles_and_aperiodic_runs_report_the_unit_last_state(self):
        # only a fixed direction is lifted to its fixed-point scale before the
        # ferro residual is taken
        cases = [
            (Couplings(0.25, 0.9, 1.0), (0.2, 1.0, 0.8, 0.3), 5000, "cycle"),
            # near the ferro line, cut short by the budget
            (Couplings(1.0, 0.0, 1.8), (1.0, 0.3, 0.2, 0.05), 100, "aperiodic"),
        ]
        for c, u0, max_iter, kind in cases:
            p = derive_params(c)
            out = iterate(p, StateVector(*u0), max_iter=max_iter)
            assert out.kind == kind
            last = out.attractor[-1]
            label = classify_phase(p, out)
            assert label.m2_residual == ferro_residual(p, last)
            assert label.m2_residual != ferro_residual(p, periodic_state(p, last))

    def test_incommensurate_budget_label(self):
        # competing couplings, generic start, small budget: trajectories that
        # have not resolved are reported aperiodic, which is a valid outcome
        p = derive_params(Couplings(1.0, -0.5, 0.25))
        out = iterate(p, StateVector(1.0, 0.9, 0.3, 0.1), max_iter=150)
        if out.kind == "aperiodic":
            label = classify_phase(p, out)
            assert label.phase == "incommensurate"


class TestSymmetricAttractorClass:
    def test_basins_in_three_root_regime(self, params_three_roots):
        p = params_three_roots
        roots = [r.x for r in solve_fixed_points(p).roots]
        lo = symmetric_attractor_class(p, StateVector(roots[1] * 0.5, 1.0, 1.0, roots[1] * 0.5))
        hi = symmetric_attractor_class(p, StateVector(roots[1] * 2.0, 1.0, 1.0, roots[1] * 2.0))
        assert lo.kind == "asymptotically-fixed"
        assert lo.target == pytest.approx(roots[0], rel=1e-10)
        assert hi.kind == "asymptotically-fixed"
        assert hi.target == pytest.approx(roots[2], rel=1e-10)

    def test_periodic_class_below_one(self, params_symmetric_cycle):
        p = params_symmetric_cycle
        roots = solve_two_cycles(p).roots
        cls = symmetric_attractor_class(p, StateVector(0.9, 1.0, 1.0, 0.9))
        assert cls.kind == "asymptotically-periodic"
        assert any(cls.target == pytest.approx(y, rel=1e-8) for y in roots)
        # both cycle classes are reachable: a start whose double step lands on
        # the other side picks the partner ratio
        cls2 = symmetric_attractor_class(p, StateVector(1.2, 0.1, 0.1, 1.2))
        assert {round(cls.target, 6), round(cls2.target, 6)} <= {round(y, 6) for y in roots}

    def test_small_b_without_cycles_is_fixed(self):
        # b < 1 but above the cycle threshold: the double-step limit is the
        # unique fixed ratio, so the class is asymptotically fixed
        p = BoltzmannParams(1.0, 0.9)
        cls = symmetric_attractor_class(p, StateVector(2.0, 1.0, 1.0, 2.0))
        assert cls.kind == "asymptotically-fixed"

    def test_rejects_off_slice_and_periodic_starts(self, params_symmetric_cycle):
        p = params_symmetric_cycle
        with pytest.raises(DomainError):
            symmetric_attractor_class(p, StateVector(1.0, 0.4, 0.5, 1.0))
        y = solve_two_cycles(p).roots[0]
        with pytest.raises(DomainError):
            symmetric_attractor_class(p, StateVector(y, 1.0, 1.0, y))

    @pytest.mark.parametrize(
        "x0, exact", [(1e-16, 0), (5e-15, 0), (7e-15, 2), (1e-14, 2)]
    )
    def test_starts_near_tiny_ratios(self, x0, exact):
        # fixed ratios 1.6e-17 (stable), 6.3e-15 (unstable) and 1.4e45 (stable)
        cls = symmetric_attractor_class(derive_params(TINY_RATIOS), StateVector(x0, 1.0, 1.0, x0))
        assert cls.kind == "asymptotically-fixed"
        assert cls.target == pytest.approx(TINY_RATIOS_EXACT[exact], rel=1e-12)

    def test_agrees_with_iteration(self, rng):
        checked = 0
        for j1, j2, t in rng.uniform([-3.0, -3.0, 0.1], [3.0, 3.0, 4.0], size=(1000, 3)).tolist():
            p = derive_params(Couplings(j1, j2, t))
            fixed = solve_fixed_points(p).roots
            cycles = solve_two_cycles(p)
            if cycles.degenerate:
                continue
            refs = [f.x for f in fixed] + list(cycles.roots)
            edges = [f.x for f in fixed if f.stability == "saddle-boundary"]
            a2 = p.a * p.a
            span = math.log(max(p.b_tilde, 1.0 / p.b_tilde))
            starts = [a2 * math.exp(rng.uniform(-span - 4.6, span + 4.6))]
            starts += [r * (1.0 + d) for r in refs for d in (-1e-3, -1e-6, 1e-6, 1e-3)]
            for x0 in starts:
                if any(abs(x0 - r) <= 1e-3 * r for r in edges):
                    continue
                cls = symmetric_attractor_class(p, StateVector(x0, 1.0, 1.0, x0))
                assert cls.target == _nearest(refs, _iterated_limit(p, x0)), (j1, j2, t, x0)
                periodic = cls.target in cycles.roots
                assert cls.kind == ("asymptotically-periodic" if periodic else "asymptotically-fixed")
                checked += 1
        assert checked > 4000

    @pytest.mark.parametrize("edge", [0, 1])
    @pytest.mark.parametrize("b", [1.8, 2.0, 3.0, 5.0])
    def test_window_edge_double_root(self, b, edge):
        # at a window edge one fixed ratio is a double root of g(x) - x: the
        # sign of g(x) - x is the same on both sides of it
        level = multi_root_window(b**4)[edge]
        p = BoltzmannParams((level * b**6) ** -0.5, b)
        rep = solve_fixed_points(p)
        assert rep.regime == "two"
        refs = [f.x for f in rep.roots]
        for r in refs:
            for d in (-0.5, -0.1, 0.1, 0.5):
                x0 = r * (1.0 + d)
                cls = symmetric_attractor_class(p, StateVector(x0, 1.0, 1.0, x0))
                assert cls.kind == "asymptotically-fixed"
                assert cls.target == _nearest(refs, _iterated_limit(p, x0)), (x0, refs)

    @pytest.mark.parametrize("edge", ["star_minus", "star_plus"])
    def test_degenerate_cycle_boundary(self, edge):
        # the pair has merged into the fixed ratio, where g' = -1: convergence
        # is algebraic, so only the kind is compared
        b = 0.5
        a2 = dict(zip(("star_minus", "star_plus"), star_window(b)))[edge]
        p = BoltzmannParams(math.sqrt(a2), b)
        assert solve_two_cycles(p).degenerate
        (r,) = [f.x for f in solve_fixed_points(p).roots]
        for x0 in (0.5 * r, 0.9 * r, 1.1 * r, 2.0 * r):
            cls = symmetric_attractor_class(p, StateVector(x0, 1.0, 1.0, x0))
            assert cls == SymmetricClass("asymptotically-fixed", r)


def _seeded_start(seed):
    """The normalised start that a scan gives ``seed``."""
    return normalize(_starts_for_seeds([seed])[seed])


def _iterated_limit(p, x, steps=400_000):
    """Limit of plain iteration of the ratio map (of its double step for b < 1)."""
    for _ in range(steps):
        y = ratio_map(p, x)
        if p.b < 1.0:
            y = ratio_map(p, y)
        if abs(y - x) <= 1e-14 * x:
            return y
        x = y
    return x


def _nearest(refs, x):
    return min(refs, key=lambda r: abs(math.log(r / x)))
