import copy
import errno
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayleyphase.partition
import cayleyphase.scan
import cayleyphase.symmetric
from cayleyphase import (
    KERNEL_BACKEND,
    AxisSpec,
    Couplings,
    DomainError,
    ParameterRangeError,
    ScanConfig,
    derive_params,
    format_csv,
    format_json,
    run_scan,
    __version__,
)
from cayleyphase.cli import _write_output, main
from cayleyphase.scan import CSV_COLUMNS, _fmt, _json, _json_safe, _scan_chunks, _starts_for_seeds, _uniforms
from conftest import DIAGNOSE_POINTS


def _json_reference(payload):
    # the object the one JSON form must parse to
    return json.loads(json.dumps(_json_safe(payload)))


def _one_line(text: str) -> bool:
    return text.endswith("\n") and text.count("\n") == 1


# nested dicts, lists and tuples of every scalar json writes, with infinities,
# NaN, empty containers and non-ASCII text among them
_JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=24,
)


def make_config(**overrides):
    kwargs = dict(
        axes=[AxisSpec("temperature", 0.8, 2.4, 3), AxisSpec("j1", 0.1, 0.9, 3)],
        j2=0.5,
        seeds=[1, 2],
        max_iter=4000,
    )
    kwargs.update(overrides)
    return ScanConfig(**kwargs)


class TestScanConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ScanConfig(axes=[], j1=1.0, j2=0.0, temperature=1.0)
        for seeds in ([], "12", [-1], [1.0], [True]):
            with pytest.raises(DomainError):
                make_config(seeds=seeds)
        for field, value in (
            ("max_iter", "abc"),
            ("max_iter", 2000.0),
            ("j1", "abc"),
            ("j2", [0.5]),
            ("temperature", "1"),
            ("workers", 2.5),
            # ints that a JSON config can hold but a double cannot
            ("j1", 10**400),
            ("j2", -(10**400)),
            ("temperature", 10**400),
            # JSON true and false load as bools, which Python counts as ints
            ("j1", True),
            ("j2", False),
            ("temperature", True),
            ("max_iter", True),
            ("workers", True),
        ):
            with pytest.raises(DomainError, match=field):
                make_config(**{field: value})
        for field, args in (
            ("min", ("-1", 0.0, 2)),
            ("max", (-1.0, "0", 2)),
            ("steps", (-1.0, 0.0, 2.0)),
            ("min", (-(10**400), 0.0, 2)),
            ("max", (-1.0, 10**400, 2)),
            ("min", (True, 2.0, 2)),
            ("max", (-1.0, True, 2)),
            ("steps", (1.0, 2.0, True)),
            ("steps must be >= 1", (-1.0, 0.0, 0)),
            # an infinite bound or span would put NaN or inf on the grid
            ("finite", (-math.inf, -0.1, 3)),
            ("finite", (1.0, math.inf, 1)),
            ("finite", (math.nan, 1.0, 1)),
            ("finite", (-1e308, 1.5e308, 5)),
            ("finite", (-1.7e308, 1.7e308, 2)),
            ("finite", (-(10**308), 10**308, 2)),
        ):
            with pytest.raises(DomainError, match=field):
                AxisSpec("j2", *args)
        with pytest.raises(DomainError):
            ScanConfig(axes=[AxisSpec("temperature", 1, 2, 3)], j1=None, j2=0.5)
        with pytest.raises(DomainError):
            AxisSpec("temperature", 2.0, 1.0, 5)
        with pytest.raises(DomainError):
            AxisSpec("volume", 1.0, 2.0, 5)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"format": "xml"}, "format must be 'csv' or 'json'"),
            ({"axes": [AxisSpec("j1", 0.1, 0.9, 3), AxisSpec("j1", 0.2, 0.8, 2)], "temperature": 1.0}, "duplicate axis"),
            (
                {"axes": [AxisSpec("j2", -1.0, 0.0, 2), AxisSpec("j2_over_j1", -1.0, 0.0, 2)], "j1": 1.0, "temperature": 1.0},
                "axes j2 and j2_over_j1 conflict",
            ),
            (
                {"axes": [AxisSpec("j2_over_j1", -1.0, 0.0, 2), AxisSpec("j1", 0.5, 1.0, 2)], "temperature": 1.0},
                "axis j2_over_j1 requires a fixed j1",
            ),
            ({"axes": [AxisSpec("temperature", 1.0, 2.0, 2)], "j1": 1.0, "j2": None}, "j2 must be fixed or an axis"),
        ],
        ids=["format", "duplicate-axis", "j2-and-ratio", "ratio-with-j1-axis", "no-j2"],
    )
    def test_inconsistent_configs_are_rejected(self, overrides, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            make_config(**overrides)

    def test_axis_values_match_linspace_bitwise(self):
        rng = random.Random(20261018)
        axes = [(0.8, 2.4, 3), (-1.0, -1.0, 1), (1e300, 1e300, 1)]
        axes += [(0.0, 4e-323, 101), (-5e-324, 5e-324, 40)]  # subnormal step: divide first
        axes += [(-1e308, 7e307, 5), (-8e307, 8e307, 2)]  # max - min just below overflow
        for _ in range(2000):
            lo, hi = sorted(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 308.0) for _ in range(2))
            if lo < hi and math.isfinite(hi - lo):
                axes.append((lo, hi, rng.choice((1, 2, 3, 5, 10, 80, 101, 1000))))
            lo, hi = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
            axes.append((lo, hi, rng.randint(1, 400)))
        for lo, hi, steps in axes:
            got = AxisSpec("j2", lo, hi, steps).values()
            want = np.linspace(lo, hi, steps).tolist()
            assert all(type(x) is float for x in got)
            assert [struct.pack("d", x) for x in got] == [struct.pack("d", x) for x in want], (lo, hi, steps)

    def test_ratio_axis(self):
        cfg = ScanConfig(
            axes=[AxisSpec("j2_over_j1", -0.8, 0.8, 5)],
            j1=1.0,
            temperature=1.5,
            max_iter=2000,
        )
        rows = run_scan(cfg)
        assert len(rows) == 5
        for row in rows:
            assert row.j2 == pytest.approx(row.j1 * (-0.8 + 1.6 * row.grid_i / 4.0), rel=1e-12)


class TestScanDeterminism:
    def test_single_point_grid(self):
        cfg = make_config(axes=[AxisSpec("temperature", 1.0, 1.0, 1)], j1=0.5)
        rows = run_scan(cfg)
        assert len(rows) == len(cfg.seeds)
        assert rows[0].grid_i == 0 and rows[0].grid_j == 0

    def test_starts_are_python_floats(self):
        # numpy scalars would slow the pure-Python kernel and leak into messages
        starts = _starts_for_seeds([0, 1, 7])
        assert all(type(x) is float for start in starts.values() for x in start)

    def test_starts_match_numpy_generator_bitwise(self):
        # the pure-Python SeedSequence/PCG64 against numpy's, on small seeds and
        # on seeds of 33 to 200 bits (more entropy words than the pool holds)
        rng = random.Random(20261018)
        seeds = list(range(4096)) + [rng.getrandbits(n) | 1 << (n - 1) for n in range(33, 201)]
        starts = _starts_for_seeds(seeds)
        for seed in seeds:
            want = np.random.default_rng(seed).uniform(-2.0, 2.0, 4)
            assert struct.pack("4d", *_uniforms(seed)) == want.tobytes(), seed
            assert struct.pack("4d", *starts[seed]) == (10.0 ** want).tobytes(), seed

    def test_workers_do_not_change_bytes(self, monkeypatch):
        # two CPUs, so the pool path runs on any machine
        monkeypatch.setattr(cayleyphase.scan, "_available_cpus", lambda: 2)
        cfg1 = make_config(workers=1)
        cfg4 = make_config(workers=4)
        rows1, rows4 = run_scan(cfg1), run_scan(cfg4)
        assert format_csv(rows1) == format_csv(rows4)
        assert format_json(rows1, cfg1) == format_json(rows4, cfg4)

    def test_pool_is_bounded(self, monkeypatch):
        # a fake fork records each child's share of the grid and evaluates it
        # in-process; no real process starts
        forks = []

        def fake_fork_share(evaluate, points):
            forks.append(points)
            return lambda: cayleyphase.scan._share(evaluate, points)

        monkeypatch.setattr(cayleyphase.scan, "_fork_share", fake_fork_share)
        # grids by their number of points
        grids = {
            1: {"axes": [AxisSpec("temperature", 1.0, 1.0, 1)], "j1": 0.5},
            2: {"axes": [AxisSpec("temperature", 1.0, 2.0, 2)], "j1": 0.5},
            7: {"axes": [AxisSpec("temperature", 1.0, 2.0, 7)], "j1": 0.5},
            9: {},
            400: {"axes": [AxisSpec("temperature", 0.8, 2.4, 20), AxisSpec("j1", 0.1, 0.9, 20)], "seeds": [1]},
        }
        # (workers, points, cpus, processes): the parent is one of them
        cases = [
            (6, 1, 8, 1),  # in-process
            (6, 9, 1, 1),  # in-process
            (6, 9, 4, 4),
            (3, 9, 8, 3),
            (6, 2, 8, 2),
        ]
        cases += [(workers, n, 8, min(workers, n)) for n in (1, 7, 9, 400) for workers in (2, 4)]
        serial = {n: format_csv(run_scan(make_config(**grid))) for n, grid in grids.items()}
        for workers, n, cpus, processes in cases:
            forks.clear()
            monkeypatch.setattr(cayleyphase.scan, "_available_cpus", lambda: cpus)
            cfg = make_config(workers=workers, **grids[n])
            rows = run_scan(cfg)
            # child k takes every processes-th point from k
            grid = cayleyphase.scan._grid(cfg)
            assert forks == [grid[k::processes] for k in range(1, processes)], (workers, n, cpus)
            assert format_csv(rows) == serial[n], (workers, n, cpus)
        # without fork the scan runs in-process
        forks.clear()
        monkeypatch.delattr(cayleyphase.scan.os, "fork")
        assert format_csv(run_scan(make_config(workers=4, **grids[9]))) == serial[9]
        assert forks == []

    def test_pool_errors_match_serial(self, monkeypatch, capsys):
        # real forks; two CPUs, so the pool path runs on any machine
        monkeypatch.setattr(cayleyphase.scan, "_available_cpus", lambda: 2)
        argv = "scan --j1 1 --j2 -2 --axis temperature:0.03:0.06:4 --seeds 0,1 --max-iter 5000 --workers".split()
        outcomes = []
        for workers in ("1", "2"):
            code = main([*argv, workers])
            outcomes.append((code, capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        code, captured = outcomes[0]
        assert code == 2 and captured.out == ""
        # after the pure-Python kernel's warning, where that kernel runs
        assert captured.err.splitlines()[-1].startswith("numeric range error: trajectory left the floating-point range")
        # one line, in the one form of a computed state's range error
        assert captured.err.count("numeric range error:") == 1
        assert captured.err.splitlines()[-1].endswith(" range in component u2")
        # every child is reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "workers, failing, expected",
        [
            (2, {1, 2}, "point 1"),  # the child's failure comes first
            (2, {2, 3}, "point 2"),  # the parent's own
            (2, {3, 4}, "point 3"),
            (3, {2, 3, 4}, "point 2"),
            (3, {5}, "point 5"),
        ],
    )
    def test_pool_raises_earliest_failure(self, monkeypatch, workers, failing, expected):
        # several points fail: the earliest in grid order is raised, as a
        # serial scan raises it, whichever process evaluated it
        monkeypatch.setattr(cayleyphase.scan, "_available_cpus", lambda: workers)
        evaluate = cayleyphase.scan._evaluate_point

        def failing_point(cfg, starts, point):
            if point[0] in failing:
                raise ParameterRangeError(f"point {point[0]}")
            return evaluate(cfg, starts, point)

        monkeypatch.setattr(cayleyphase.scan, "_evaluate_point", failing_point)
        cfg = make_config(axes=[AxisSpec("temperature", 1.0, 2.0, 6)], j1=0.5, workers=workers)
        for w in (1, workers):
            with pytest.raises(ParameterRangeError, match=f"^{expected}$"):
                run_scan(cfg._replace(workers=w))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pool_reports_a_dead_child(self, monkeypatch):
        monkeypatch.setattr(cayleyphase.scan, "_available_cpus", lambda: 2)
        parent = os.getpid()

        def dying_point(cfg, starts, point):
            if os.getpid() != parent:
                os._exit(7)
            return [point[0]]

        monkeypatch.setattr(cayleyphase.scan, "_evaluate_point", dying_point)
        cfg = make_config(axes=[AxisSpec("temperature", 1.0, 2.0, 4)], j1=0.5, workers=2)
        with pytest.raises(RuntimeError, match="^scan worker exited with status 7$"):
            run_scan(cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_repeat_runs_identical(self):
        cfg = make_config()
        assert format_csv(run_scan(cfg)) == format_csv(run_scan(cfg))

    def test_csv_schema(self):
        text = format_csv(run_scan(make_config()))
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == (
            "grid_i,grid_j,j1,j2,temperature,a,b,phase,cycle_period,"
            "para_count,comm2_count,m1_residual,m2_residual,iterations,seed"
        )
        rows = text.splitlines()[1:]
        assert len(rows) == 3 * 3 * 2

    def test_json_payload(self):
        cfg = make_config(format="json")
        payload = json.loads(format_json(run_scan(cfg), cfg))
        assert payload["metadata"]["tool"] == "cayleyphase"
        assert payload["metadata"]["config"]["j2"] == 0.5
        assert "tol" not in payload["metadata"]["config"]
        assert len(payload["results"]) == 18
        assert set(payload["results"][0]) == set(CSV_COLUMNS)

    @settings(max_examples=300, deadline=None)
    @given(payload=_JSON_PAYLOADS)
    def test_json_writer_matches_json_dumps(self, payload):
        text = _json(copy.deepcopy(payload))
        assert _one_line(text)
        assert json.loads(text) == _json_reference(copy.deepcopy(payload))

    def test_json_writer_matches_json_dumps_on_a_scan(self):
        # the coldest corner of the frustrated grid: its period-4 runs have an
        # infinite m2 residual, written as null
        cfg = make_config(
            axes=[AxisSpec("j2_over_j1", -0.8, -0.6, 2), AxisSpec("temperature", 0.25, 0.5, 2)],
            j1=1.0, j2=None, seeds=[6, 7], format="json",
        )
        rows = run_scan(cfg)
        assert any(math.isinf(r.m2_residual) for r in rows)
        text = format_json(rows, cfg)
        assert '"m2_residual": null' in text
        assert text == _scan_json_reference(rows, cfg)

    def test_json_writer_stays_in_the_c_encoder(self, monkeypatch):
        # json's pure-Python encoder is about twice as slow; it must not be
        # reached, neither by the strict encode nor by the retry without a
        # non-finite value
        def python_encoder(*args, **kwargs):
            raise AssertionError("json fell back to its pure-Python encoder")

        cfg = make_config(axes=[AxisSpec("temperature", 0.8, 2.4, 2)], j1=0.5, format="json")
        rows = run_scan(cfg)
        assert all(math.isfinite(r.m2_residual) for r in rows)
        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        cases = ((rows, rows[0].m2_residual), ([rows[0]._replace(m2_residual=math.inf), *rows[1:]], None))
        for case_rows, m2_residual in cases:
            text = format_json(case_rows, cfg)
            assert _one_line(text) and json.loads(text)["results"][0]["m2_residual"] == m2_residual

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_scan_writer_memory_does_not_grow_with_the_grid(self, fmt, monkeypatch):
        # the output is encoded and written in blocks of a fixed row count:
        # ten times the rows must not take ten times the memory
        cfg = make_config(format=fmt)
        rows = run_scan(cfg)
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        peaks, digests = [], []
        for many in (rows * 50, rows * 500):
            sink.digest = hashlib.sha256()
            tracemalloc.start()
            try:
                _write_output(_scan_chunks(many, fmt, cfg), None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            digests.append(sink.digest.digest())
            text = format_json(many, cfg) if fmt == "json" else format_csv(many)
            assert digests[-1] == hashlib.sha256(text.encode()).digest()
        assert peaks[1] < 1.5 * peaks[0], peaks

    @pytest.mark.parametrize(
        "blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)], ids=["0", "1", "B-1", "B", "B+1", "2B+1"]
    )
    def test_scan_chunks_at_block_edges(self, blocks, extra):
        # each chunk holds at most one block of B rows, and the chunks join
        # to the bytes of the whole document
        size = cayleyphase.scan._BLOCK_ROWS
        n = blocks * size + extra
        cfg = make_config(format="json")
        rows = (run_scan(cfg) * (2 * size + 1))[:n]
        chunks = list(_scan_chunks(rows, "json", cfg))
        assert len(chunks) == 2 + -(-n // size)
        assert "".join(chunks) == _scan_json_reference(rows, cfg)
        chunks = list(_scan_chunks(rows, "csv"))
        assert len(chunks) == -(-(n + 1) // size)
        lines = [",".join(CSV_COLUMNS)] + [",".join(map(_fmt, r)) for r in rows]
        assert "".join(chunks) == format_csv(rows) == "".join(line + "\n" for line in lines)

    def test_a_non_finite_value_is_null_in_its_row_only(self):
        # in the middle of a block, among finite rows
        size = cayleyphase.scan._BLOCK_ROWS
        cfg = make_config(format="json")
        rows = (run_scan(cfg) * (2 * size + 1))[: 2 * size + 1]
        middle = size + size // 2
        rows[middle] = rows[middle]._replace(m2_residual=math.inf)
        text = format_json(rows, cfg)
        assert text == _scan_json_reference(rows, cfg)
        assert [r["m2_residual"] is None for r in json.loads(text)["results"]] == [k == middle for k in range(len(rows))]


class _FailingRaw(io.RawIOBase):
    """A raw stdout whose every write raises ``exc``, or discards its bytes
    once ``exc`` is None."""

    def __init__(self, exc: OSError | None) -> None:
        self.exc = exc

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        if self.exc is not None:
            raise self.exc
        return len(data)


class _Sink:
    """A stdout that keeps only a digest of what is written to it."""

    def write(self, text: str) -> None:
        self.digest.update(text.encode())

    def flush(self) -> None:
        pass


def _scan_json_reference(rows, cfg) -> str:
    # json.dumps on the whole payload; only a payload holding a non-finite
    # value goes through _json_safe first
    payload = {"metadata": {"tool": "cayleyphase", "version": __version__, "config": cfg.to_dict()}}
    payload["results"] = [r._asdict() for r in rows]
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        return json.dumps(_json_safe(payload), sort_keys=True, allow_nan=False) + "\n"


class TestScanPhysics:
    def test_para_count_transition_at_tc(self):
        import math

        from cayleyphase import critical_temperature
        from oracles import multi_root_window

        j2 = 1.0
        tc = critical_temperature(j2)
        t0 = 1.45
        b0 = math.exp(j2 / t0)
        window = multi_root_window(b0**4)
        level = window[0] * (window[1] / window[0]) ** 0.35
        j1 = t0 * math.log((level * b0**6) ** -0.5)
        cfg = ScanConfig(
            axes=[AxisSpec("temperature", 1.40, 2.0, 25)],
            j1=j1,
            j2=j2,
            seeds=[1],
            max_iter=2000,
        )
        rows = run_scan(cfg)
        for row in rows:
            if row.temperature >= tc:
                assert row.para_count == 1
        # the transition to three phases happens below tc
        below = [r.para_count for r in rows if r.temperature < tc]
        assert 3 in below

    def test_comm2_window_matches_critical_curve(self):
        import math

        from cayleyphase import critical_curve

        beta = 2.0
        j2 = math.log(0.5) / beta  # b = 0.5
        sample = critical_curve(j2, beta)
        lo, hi = sample.j1_minus, sample.j1_plus
        width = hi - lo
        cfg = ScanConfig(
            axes=[AxisSpec("j1", lo - 0.3 * width, hi + 0.3 * width, 33)],
            j2=j2,
            temperature=1.0 / beta,
            seeds=[1],
            max_iter=2000,
        )
        rows = run_scan(cfg)
        step = (cfg.axes[0].max - cfg.axes[0].min) / 32
        for row in rows:
            if lo + step < row.j1 < hi - step:
                assert row.comm2_count == 2, row.j1
            elif row.j1 < lo - step or row.j1 > hi + step:
                assert row.comm2_count == 0, row.j1


# the CLI of a build without the compiled kernel: its import fails, as in a
# compiler-less install
PURE_PYTHON_MAIN = (
    "import sys; sys.modules['cayleyphase._trajectory'] = None;"
    " from cayleyphase.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_cli(*args, pure_python=False):
    return subprocess.run(
        [sys.executable, *(("-c", PURE_PYTHON_MAIN) if pure_python else ("-m", "cayleyphase")), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


SLOW_KERNEL_WARNING = "about 60x slower"

# at (0, -ln 2, 1) the ferro surface is empty where the runs end, so
# m2_residual is infinite; at T = 1 the j2 = -0.1 curve branches are absent
LN_HALF = repr(-math.log(2.0))
JSON_CALLS = {
    "diagnose": ("diagnose", "--j1", "0", "--j2", LN_HALF, "--temperature", "1", "--seeds", "1,2"),
    "scan": ("scan", "--axis", "temperature:1:1:1", "--j1", "0", "--j2", LN_HALF, "--seeds", "1,2"),
    "curves": ("curves", "--axis", "j2:-2:-0.1:5", "--temperature", "1"),
    "partition": ("partition", "--j1", "0.5", "--j2", "-0.3", "--temperature", "1", "--depth", "12", "--log"),
}


# every option string of each subcommand's --help
POINT_OPTIONS = "--j1 --j2 --temperature"
RUN_OPTIONS = "--seeds --max-iter"
HELP_OPTIONS = {
    "": "-h --help --version",
    "diagnose": f"-h --help {POINT_OPTIONS} {RUN_OPTIONS} --format --output",
    "scan": f"-h --help {POINT_OPTIONS} --axis {RUN_OPTIONS} --format --output --workers --config",
    "curves": "-h --help --axis --temperature --format --output",
    "partition": f"-h --help {POINT_OPTIONS} --depth --log --format --output",
    "verify": "-h --help",
}


def _reject_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


# run under python -S, so that site-packages and numpy with it are hidden:
# the CLI calls named in argv[1], in-process, then the ferro solver and
# phase_counts, which only commands that need numpy reach
STDLIB_ONLY_PROBE = """
import contextlib, importlib.util, io, json, sys
seen = {"numpy importable": importlib.util.find_spec("numpy") is not None}
import cayleyphase
from cayleyphase.cli import main

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()

seen["calls"] = {name: run(argv) for name, argv in json.loads(sys.argv[1]).items()}
ferro_points = [cayleyphase.Couplings(1.0, 0.15, 0.6), cayleyphase.Couplings(1.0, 1.5, 0.09)]
seen["ferro counts"] = [len(cayleyphase.solve_ferro_fixed_points(cayleyphase.derive_params(c))) for c in ferro_points]
seen["phase counts"] = cayleyphase.phase_counts(cayleyphase.Couplings(232.9288032071753, 9.71014349621855, 1))
print(json.dumps(seen))
"""


class TestCli:
    def test_diagnose_text(self):
        r = run_cli("diagnose", "--j1", "1", "--j2", "0.9", "--temperature", "1")
        assert r.returncode == 0
        assert "critical temperature" in r.stdout
        assert "below" in r.stdout  # T = 1 < 1.8/ln3

    @pytest.mark.parametrize("command", sorted(JSON_CALLS))
    def test_one_json_form(self, command, capsys):
        assert main([*JSON_CALLS[command], "--format", "json"]) == 0
        text = capsys.readouterr().out
        assert _one_line(text)
        data = json.loads(text, parse_constant=_reject_constant)
        assert json.dumps(data, sort_keys=True) + "\n" == text
        if command == "curves":
            assert main(list(JSON_CALLS[command])) == 0
            header, *lines = capsys.readouterr().out.splitlines()
            csv_rows = [[None if cell == "" else float(cell) for cell in line.split(",")] for line in lines]
            assert csv_rows == [[row[name] for name in header.split(",")] for row in data]
            assert csv_rows[-1][1:] == [None, None]
        if command in ("scan", "diagnose"):
            runs = data["results" if command == "scan" else "trajectories"]
            assert len(runs) == 2 and all(run["m2_residual"] is None for run in runs)

    def test_diagnose_json(self):
        r = run_cli(
            "diagnose", "--j1", "0", "--j2", "0", "--temperature", "1", "--format", "json",
            "--seeds", "1,2",
        )
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["phase_counts"]["paramagnetic"] == 1
        assert payload["consensus_phase"] == "paramagnetic"
        assert len(payload["trajectories"]) == 2

    def test_diagnose_counts_listed_roots(self):
        # fixed ratios 1.6e-17, 6.3e-15 and 1.4e45: all three are listed and counted
        r = run_cli(
            "diagnose", "--j1", "2.5645435717473593", "--j2", "2.8075571395478782",
            "--temperature", "0.15735458936494023", "--format", "json",
        )
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        stability = [f["stability"] for f in payload["fixed_points"]]
        assert stability == ["stable", "unstable", "stable"]
        assert payload["phase_counts"] == {"paramagnetic": 3, "two_commensurate": 0}

    def test_diagnose_deep_competition(self):
        # b = exp(-2) is far below the two-cycle threshold: the report must
        # carry an active two-cycle pair
        r = run_cli(
            "diagnose", "--j1", "1", "--j2", "-1", "--temperature", "0.5",
            "--format", "json",
        )
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["weights"]["b"] == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert len(payload["two_cycles"]["roots"]) == 2

    def test_scan_and_diagnose_agree(self, capsys):
        # a one-point scan and diagnose run the same seeds the same way
        budget = ("--seeds", "0,1,2", "--max-iter", "5000")
        phases = set()
        for j1, j2, t in DIAGNOSE_POINTS:
            point = ("--j1", repr(j1), "--j2", repr(j2))
            axis = f"temperature:{t!r}:{t!r}:1"
            assert main(["scan", *point, "--axis", axis, *budget, "--format", "json"]) == 0
            rows = json.loads(capsys.readouterr().out)["results"]
            assert main(["diagnose", *point, "--temperature", repr(t), *budget, "--format", "json"]) == 0
            runs = json.loads(capsys.readouterr().out)["trajectories"]
            assert [r["seed"] for r in rows] == [r["seed"] for r in runs] == [0, 1, 2]
            for row, run in zip(rows, runs):
                assert row["phase"] == run["phase"], (j1, j2, t, row["seed"])
                period = row["cycle_period"] if row["phase"] == "commensurate" else None
                assert period == run["period"]
                for key in ("iterations", "m1_residual", "m2_residual"):
                    assert row[key] == run[key], (j1, j2, t, row["seed"], key)
                phases.add(row["phase"])
        assert phases == {"ferromagnetic", "paramagnetic", "commensurate"}

    def test_scan_roundtrip(self, tmp_path):
        out = tmp_path / "scan.csv"
        r = run_cli(
            "scan", "--axis", "temperature:1.0:2.0:3", "--j1", "0.2", "--j2", "0.4",
            "--seeds", "7", "--max-iter", "2000", "--output", str(out),
        )
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4

    def test_scan_config_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"j2": -0.6, "seeds": [3]}))
        out = tmp_path / "scan.csv"
        r = run_cli(
            "scan", "--axis", "temperature:1.0:2.0:2", "--j1", "0.2", "--j2", "0.4",
            "--config", str(cfg_file), "--max-iter", "2000", "--output", str(out),
        )
        assert r.returncode == 0
        body = out.read_text().splitlines()[1]
        assert ",-0.59999999999999998," in body

    def test_curves(self):
        r = run_cli("curves", "--axis", "j2:-2:-0.5:4", "--temperature", "0.8")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "j2,j1_plus,j1_minus"
        assert len(lines) == 5

    def test_curves_cold_and_bad_temperatures(self):
        r = run_cli("curves", "--axis", "j2:-2:-0.1:5", "--temperature", "0.01")
        assert r.returncode == 0, r.stderr
        j2, plus, minus = r.stdout.splitlines()[1].split(",")
        assert float(j2) == -2.0
        assert float(plus) == pytest.approx(6.0 - math.log(4.0) / 200.0, rel=1e-15)
        assert float(minus) == -float(plus)
        for t in ("0", "-1", "inf", "nan"):
            r = run_cli("curves", "--axis", "j2:-2:-0.1:5", "--temperature", t)
            assert r.returncode == 1, t
            assert r.stderr.count("error:") == 1 and "Traceback" not in r.stderr, (t, r.stderr)

    @pytest.mark.parametrize("axes", [(), ("j1:0:1:2",), ("j2:-1:0:2", "j2:-2:-1:2")], ids=["none", "j1", "two"])
    def test_curves_need_one_j2_axis(self, axes, capsys):
        argv = ["curves", "--temperature", "1"]
        for axis in axes:
            argv += ["--axis", axis]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: curves needs exactly one axis, over j2\n")

    def test_curves_rows_without_negative_j2_are_empty(self, capsys):
        # no two-cycle window exists for j2 >= 0: the row is kept, its branches empty
        assert main(["curves", "--axis", "j2:-1:1:5", "--temperature", "0.8"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "j2,j1_plus,j1_minus"
        assert [row.split(",")[0] for row in rows] == ["-1", "-0.5", "0", "0.5", "1"]
        assert all(row.endswith(",,") for row in rows[2:])
        assert not any(row.endswith(",,") for row in rows[:2])

    def test_scan_config_file_with_an_unknown_format(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"format": "xml"}))
        argv = ["scan", "--axis", "temperature:1:2:2", "--j1", "0.2", "--j2", "0.4", "--config", str(cfg_file)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: format must be 'csv' or 'json'\n")

    @pytest.mark.parametrize(
        "point, two_cycles, ferro_lines",
        [
            ((0.0, -math.log(2.0), 1.0), [((3.0 - math.sqrt(5.0)) / 2.0) ** 2, ((3.0 + math.sqrt(5.0)) / 2.0) ** 2], 0),
            ((1.0, 0.15, 0.6), None, 2),
            ((0.1, 0.05, 3.0), None, 0),
        ],
        ids=["two-cycle", "ferro", "neither"],
    )
    def test_diagnose_text_lists_two_cycles_and_ferro_points(self, point, two_cycles, ferro_lines, capsys):
        j1, j2, t = point
        assert main(["diagnose", "--j1", repr(j1), "--j2", repr(j2), "--temperature", repr(t), "--seeds", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        (cycle_line,) = [line for line in lines if line.startswith("two-cycle ratios")]
        if two_cycles is None:
            assert cycle_line == "two-cycle ratios: none"
        else:
            ratios = [float(x) for x in cycle_line.split(": ")[1].split(", ")]
            assert ratios == pytest.approx(two_cycles, rel=1e-12)
        k = lines.index("ferro fixed points:" if ferro_lines else "ferro fixed points: none")
        assert [line.startswith("  u=(") for line in lines[k + 1 : k + 2 + ferro_lines]] == [True] * ferro_lines + [False]

    def test_partition(self):
        r = run_cli("partition", "--j1", "0", "--j2", "0", "--temperature", "1", "--depth", "2")
        assert r.returncode == 0
        assert "Z = 128" in r.stdout
        fe = -math.log(2.0)
        assert f"{fe:.6f}"[:8] in r.stdout or "-0.6931" in r.stdout

    def test_verify_passes(self):
        r = run_cli("verify")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "FAIL" not in r.stdout
        # without the compiled kernel, the backend check says so and passes
        r = run_cli("verify", pure_python=True)
        lines = r.stdout.splitlines()
        assert r.returncode == 0 and all(line.startswith("PASS") for line in lines), r.stdout + r.stderr
        unavailable = "PASS  trajectory backends agree: compiled kernel unavailable; running on the python backend"
        assert lines.count(unavailable) == 1, r.stdout

    def test_verify_compares_the_loaded_kernel_with_its_twin(self, monkeypatch, capsys):
        # the loaded kernel stands in for the compiled one, so the comparison
        # runs whether or not the compiled kernel is built
        monkeypatch.setattr(cayleyphase.verify, "KERNEL_BACKEND", "compiled")
        monkeypatch.setattr(cayleyphase.verify, "_traj", cayleyphase._trajectory_py)
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "PASS  trajectory backends agree: bitwise identical"

    def test_verify_catches_a_shifted_star_threshold(self, monkeypatch, capsys):
        # the thresholds' own identity (star_minus * star_plus == 1) survives
        # the shift; the two-cycle quadratic does not
        star_numerator = cayleyphase.symmetric._star_numerator
        monkeypatch.setattr(
            cayleyphase.symmetric, "_star_numerator", lambda b: star_numerator(b) * (1.0 + 1e-6)
        )
        assert main(["verify"]) == 3
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and "two-cycle thresholds" in failed[0], failed

    def test_verify_catches_a_lost_slice_root(self, monkeypatch, capsys):
        # every lifted root may satisfy the map, yet the check must see all three
        solve = cayleyphase.verify.solve_fixed_points

        def drop_a_root(p):
            rep = solve(p)
            return rep._replace(roots=rep.roots[:-1])

        monkeypatch.setattr(cayleyphase.verify, "solve_fixed_points", drop_a_root)
        assert main(["verify"]) == 3
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and "lifted fixed points" in failed[0], failed

    def test_verify_catches_a_parity_blind_periodic_partition(self, monkeypatch, capsys):
        # the two-cycle alternates between two partition values: a closed
        # form that ignores the parity of n must fail
        periodic = cayleyphase.verify.periodic_partition
        monkeypatch.setattr(cayleyphase.verify, "periodic_partition", lambda p, y, n: periodic(p, y, 0))
        assert main(["verify"]) == 3
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and "periodic partition" in failed[0], failed

    @pytest.mark.parametrize(
        "exc, stderr",
        [
            (OSError(errno.ENOSPC, "No space left on device"), "cannot write <stdout>: [Errno 28] No space left on device\n"),
            (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
        ],
        ids=["full-disk", "reader-gone"],
    )
    def test_a_failed_write_is_seen_in_process(self, exc, stderr, capsys, monkeypatch):
        # the short --version line stays in stdout's buffer until main flushes it
        raw = _FailingRaw(exc)
        stdout = io.TextIOWrapper(io.BufferedWriter(raw))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main(["--version"]) == 1
        finally:
            # drop what the failed flush left buffered: the wrapper's
            # finalizer must not flush it again
            raw.exc = None
            stdout.close()
        assert capsys.readouterr().err == stderr

    def test_a_closed_stderr_descriptor(self):
        # descriptor 2 closed before the start leaves sys.stderr None: the
        # result is still written, and the exit code is main's
        r = subprocess.run(
            [sys.executable, "-m", "cayleyphase", "--version"],
            stdout=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(2), timeout=600,
        )
        assert (r.returncode, r.stdout) == (0, f"cayleyphase {cayleyphase.__version__}\n")

    def test_usage_error_exit_code(self, tmp_path):
        point = ("--j1", "0.5", "--j2", "-0.3", "--temperature", "1")
        cases = [
            ("scan", "--axis", "bogus"),
            # an infinite bound or an overflowing span would put NaN or inf on the grid
            ("curves", "--axis", "j2:-inf:-0.1:3", "--temperature", "1"),
            ("curves", "--axis", "j2:-1e308:1e308:3", "--temperature", "1"),
            ("scan", "--axis", "temperature:1:inf:1", *point[:4]),
            ("diagnose", "--j1", "1"),  # missing j2/temperature
            ("partition", "--j2", "0", "--temperature", "1"),  # missing j1
            ("diagnose", *point, "--seeds", ""),
            ("diagnose", *point, "--seeds=-1"),
            ("scan", "--axis", "j2:-1:0:2", "--j1", "1", "--temperature", "1", "--seeds=-1"),
            # the return tolerance is a constant, not an option
            ("scan", "--axis", "j2:-1:0:2", "--j1", "1", "--temperature", "0.3", "--tol", "1"),
            ("diagnose", "--j1", "1", "--j2", "-0.6", "--temperature", "0.3", "--seeds", "1,2", "--tol", "1"),
            # argparse's own usage errors, which exit 2 unless remapped
            ("scan", "--bogus"),
            ("diagnose", "--max-iter", "abc"),
            ("partition", "--format", "xml"),
            (),
            ("curves", "--axis", "j2:-1:0:2"),
            ("bogus",),
        ]
        configs = [
            '[1,2]',
            '{"bogus": 1}',
            '{"axes":[{"name":"j1","min":0}]}',
            '{"seeds":"12"}',
            '{"max_iter": "abc"}',
            '{"j1": "abc"}',
            '{"temperature": "1"}',
            '{"workers": 2.5}',
            '{"axes":[{"name":"j2","min":"-1","max":"0","steps":2}]}',
            '{"axes":[{"name":"j2","min":-1,"max":0,"steps":2.0}]}',
            # the label and return tolerances are constants, not settings
            '{"class_tol": 1e-6}',
            '{"tol": 1e-9}',
        ]
        # JSON integers too large for a double (and, for max_iter, for a C ssize_t)
        big = "1" + "0" * 400
        configs += [f'{{"{name}": {big}}}' for name in ("j1", "j2", "temperature")]
        configs += [
            f'{{"axes":[{{"name":"j2","min":-{big},"max":0,"steps":2}}]}}',
            f'{{"axes":[{{"name":"j2","min":-1,"max":{big},"steps":2}}]}}',
            '{"max_iter": 1000000000000000000000000000000}',
        ]
        for k, text in enumerate(configs):
            path = tmp_path / f"config{k}.json"
            path.write_text(text)
            cases.append(("scan", "--axis", "j2:-1:0:2", *point[:2], "--temperature", "1", "--config", str(path)))
        cases.append(("diagnose", *point, "--max-iter", "1" + "0" * 30))
        # JSON booleans where numbers belong; everything else is complete
        path = tmp_path / "bools.json"
        path.write_text(
            '{"j1": true, "workers": true, "axes": [{"name": "temperature", "min": 1, "max": 2, "steps": true}]}'
        )
        cases.append(("scan", "--j2", "0", "--config", str(path)))
        for args in cases:
            r = run_cli(*args)
            assert r.returncode == 1, args
            assert r.stderr.count("error:") == 1, (args, r.stderr)
            assert "Traceback" not in r.stderr, (args, r.stderr)
        # an integer past Python's digit limit fails in the JSON parser itself
        path = tmp_path / "digits.json"
        path.write_text('{"j1": ' + "1" * 5000 + "}")
        r = run_cli("scan", "--axis", "j2:-1:0:2", *point[:2], "--temperature", "1", "--config", str(path))
        assert r.returncode == 1
        assert r.stderr.startswith("cannot read config") and "Traceback" not in r.stderr, r.stderr

    def test_range_error_exit_code(self):
        point = ("--j1", "0.5", "--j2", "-0.3", "--temperature", "1")
        b4_overflow = (
            "--j1", "-12.061028783664216", "--j2", "73.61062337106489",
            "--temperature", "0.2255830960252875",
        )
        for args in (
            ("diagnose", "--j1", "1000", "--j2", "0", "--temperature", "0.1"),
            # 2^1024 - 1 sites do not fit a double
            ("partition", *point, "--log", "--depth", "1023"),
            # trajectory components underflow to zero
            ("diagnose", "--j1", "-300", "--j2", "-80", "--temperature", "1"),
            # the two-cycle quadratic's degenerate window underflows
            ("diagnose", "--j1", "-188", "--j2", "-74.3", "--temperature", "1"),
            # the two-cycle quadratic has roots, and its coefficients overflow
            ("diagnose", "--j1", "178.40676446088116", "--j2", "-59.809030290529215", "--temperature", "1"),
            # trajectory components underflow to zero
            ("diagnose", "--j1", "-100", "--j2", "30", "--temperature", "1"),
            ("diagnose", "--j1", "-71.7", "--j2", "-84.2", "--temperature", "1"),
            # Z = (u1 + u2)^2 + (u3 + u4)^2 overflows, the weights do not
            ("partition", "--j1", "3.437490619714394", "--j2", "0.007838059538823897",
             "--temperature", "0.31179924434389394", "--depth", "6"),
            ("partition", "--j1", "2.5645435717473593", "--j2", "2.8075571395478782",
             "--temperature", "0.15735458936494023", "--depth", "4"),
            # b fits a double, b**4 does not
            ("diagnose", *b4_overflow),
            ("partition", *b4_overflow),
        ):
            r = run_cli(*args)
            assert r.returncode == 2, args
            assert r.stderr.count("numeric range error:") == 1, (args, r.stderr)
            assert "Traceback" not in r.stderr, (args, r.stderr)

    def test_diagnose_where_b_coeff_is_positive_and_huge(self, capsys):
        # B > 0: no two-cycle, so the quadratic's overflowing coefficients
        # are never formed
        args = ("--j1", "200", "--j2", "-60", "--temperature", "1", "--seeds", "0,1,2,3", "--format", "json")
        assert main(["diagnose", *args]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["two_cycles"]["b_coeff"] > 0.0
        assert report["phase_counts"] == {"paramagnetic": 1, "two_commensurate": 0}
        assert len(report["ferro_fixed_points"]) == 2
        assert {t["phase"] for t in report["trajectories"]} == {"ferromagnetic"}

    def test_partition_checks_depth_before_the_couplings(self):
        r = run_cli("partition", "--j1", "1000", "--j2", "0", "--temperature", "0.1", "--depth", "0")
        assert r.returncode == 1
        assert r.stderr.count("error:") == 1 and "--depth" in r.stderr, r.stderr

    @pytest.mark.parametrize("j1, j2, log_z", [(-188, -74.3, 2020.2931471805598), (-300, -80, 3240.69314718056)])
    def test_partition_log_where_1_over_a2_b6_overflows(self, j1, j2, log_z):
        # log Z by log-sum-exp over the enumerated bond sums at depth 3
        r = run_cli(
            "partition", "--j1", str(j1), "--j2", str(j2), "--temperature", "1",
            "--depth", "3", "--log", "--format", "json",
        )
        assert r.returncode == 0, r.stderr
        counts = cayleyphase.partition._bond_sum_counts(3)
        terms = [math.log(n) + j1 * s_nn + j2 * s_nnn for (s_nn, s_nnn), n in counts]
        top = max(terms)
        expected = top + math.log(math.fsum(math.exp(t - top) for t in terms))
        assert expected == pytest.approx(log_z, rel=1e-12)
        assert json.loads(r.stdout)["log_Z"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("command, options", HELP_OPTIONS.items(), ids=[c or "top" for c in HELP_OPTIONS])
    def test_help_lists_every_option(self, command, options, capsys):
        assert main([*command.split(), "--help"]) == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out)) == set(options.split()), out

    def test_closed_forms_need_only_the_standard_library(self, capsys):
        # under -S the closed forms write what they write with numpy loaded,
        # the ferro solver finds its roots and verify passes; scan and
        # diagnose, which need numpy, end in one error line
        overflowing = ("partition", "--j1", "-188", "--j2", "-74.3", "--temperature", "1", "--depth", "3", "--log")
        calls = {
            "version": ("--version",),
            "partition": JSON_CALLS["partition"],
            "partition-json": (*JSON_CALLS["partition"], "--format", "json"),
            # 1/(a^2 b^6) overflows a double: log Z is a log-sum-exp over
            # the enumerated bond sums
            "partition-overflowing": (*overflowing, "--format", "json"),
            "curves": JSON_CALLS["curves"],
            "curves-json": (*JSON_CALLS["curves"], "--format", "json"),
            "verify": ("verify",),
            "diagnose": JSON_CALLS["diagnose"],
            "scan": JSON_CALLS["scan"],
        }
        # the package's own directory is the whole path beyond the standard library
        env = {**os.environ, "PYTHONPATH": str(Path(cayleyphase.__file__).resolve().parents[1])}
        r = subprocess.run(
            [sys.executable, "-S", "-c", STDLIB_ONLY_PROBE, json.dumps(calls)],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert r.returncode == 0, r.stderr
        seen = json.loads(r.stdout)
        assert seen.pop("numpy importable") is False
        results = seen.pop("calls")
        for name in ("diagnose", "scan"):
            code, out, err = results.pop(name)
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert (code, out, errors) == (1, "", ["error: scan and diagnose need numpy: No module named 'numpy'"]), err
        # verify's backend line depends on whether this process has built the kernel
        code, out, err = results.pop("verify")
        assert code == 0 and err == "" and out and all(line.startswith("PASS") for line in out.splitlines()), out
        for name, argv in calls.items():
            if name in results:
                assert results[name] == [main(list(argv)), *capsys.readouterr()], name
        for name in ("partition-json", "partition-overflowing", "curves-json"):
            json.loads(results[name][1], parse_constant=_reject_constant)
        assert json.loads(results["partition-overflowing"][1])["log_Z"] == pytest.approx(2020.2931471805598, abs=1e-9)
        assert seen == {"ferro counts": [2, 2], "phase counts": [1, 0]}

    def test_partition_log_z_overflow(self, capsys):
        # log Z doubles with each generation: at j1 = 100, T = 0.3 it passes
        # the largest double before depth 1022 does
        argv = ["partition", "--j1", "100", "--j2", "0", "--temperature", "0.3", "--depth", "1022", "--log"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "numeric range error: log Z overflowed at depth 1022\n")

    def test_partition_overflow_names_the_log_flag(self, capsys):
        argv = ["partition", "--j1", "0.5", "--j2", "-0.3", "--temperature", "1", "--depth", "40"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric range error:") and "--log" in err, err

    def test_range_errors_found_at_accepted_couplings(self, capsys):
        # in-process, so that a traceback would fail the test as an exception
        underflow = ("--j1", "-242.5308157325041", "--j2", "69.13014666047783", "--temperature", "1")
        for argv in (
            # a fixed ratio above, then below, the double range
            ("diagnose", "--j1", "300", "--j2", "20", "--temperature", "1"),
            ("diagnose", "--j1", "-336.8354134704659", "--j2", "38.459677197930944", "--temperature", "1"),
            # the recurrence underflows
            ("partition", *underflow, "--depth", "3"),
            ("partition", *underflow, "--depth", "60", "--log"),
        ):
            assert main(list(argv)) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("numeric range error:") and err.count("\n") == 1, (argv, err)

    def test_extreme_couplings_answer_or_exit_2(self, capsys):
        rng = random.Random(20261018)
        codes = []
        while len(codes) < 100:
            j1, j2 = rng.uniform(-345, 345), rng.uniform(-86, 86)
            try:
                derive_params(Couplings(j1, j2, 1.0))
            except ParameterRangeError:
                continue
            point = ["--j1", repr(j1), "--j2", repr(j2), "--temperature", "1"]
            for argv in (["diagnose", *point, "--max-iter", "200"], ["partition", *point]):
                codes.append(main(argv))
                assert codes[-1] in (0, 2), (argv, capsys.readouterr().err)
        assert 0 in codes and 2 in codes

    def test_partition_log_runs_the_recurrence_once(self, monkeypatch, capsys):
        steps = []
        step = cayleyphase.partition.recurrence_step
        monkeypatch.setattr(cayleyphase.partition, "recurrence_step", lambda p, u: steps.append(1) or step(p, u))
        assert main(["partition", "--j1", "0.5", "--j2", "-0.3", "--temperature", "1", "--depth", "50", "--log"]) == 0
        assert len(steps) == 49

    def test_pure_python_kernel_is_loud(self):
        scan = (
            "scan", "--axis", "temperature:1.0:2.0:3", "--j1", "0.2", "--j2", "0.4",
            "--seeds", "7", "--max-iter", "2000",
        )
        expected = format_csv(
            run_scan(
                ScanConfig(
                    axes=[AxisSpec("temperature", 1.0, 2.0, 3)], j1=0.2, j2=0.4,
                    seeds=[7], max_iter=2000,
                )
            )
        )
        for pure_python, backend in ((True, "python"), (False, KERNEL_BACKEND)):
            r = run_cli(*scan, pure_python=pure_python)
            assert r.returncode == 0, r.stderr
            assert r.stdout == expected
            assert r.stderr.count(SLOW_KERNEL_WARNING) == (backend == "python")
            assert r.stderr.count("\n") == (backend == "python")
        r = run_cli("diagnose", "--j1", "0", "--j2", "0", "--temperature", "1", "--format", "json", pure_python=True)
        assert r.returncode == 0
        assert r.stderr.count(SLOW_KERNEL_WARNING) == 1
        assert json.loads(r.stdout)["kernel_backend"] == "python"
        # the start vector must not reach the message as a numpy scalar
        r = run_cli("diagnose", "--j1", "-100", "--j2", "30", "--temperature", "1", pure_python=True)
        assert r.returncode == 2
        assert "range" in r.stderr and "np.float64" not in r.stderr

    @pytest.mark.parametrize("command", ["scan", "diagnose"])
    def test_no_slow_kernel_warning_without_numpy(self, command):
        # with neither the compiled kernel nor numpy, the command cannot
        # start: it says so in one line and warns of no slow run
        blocked = PURE_PYTHON_MAIN.replace("= None;", "= None; sys.modules['numpy'] = None;")
        r = subprocess.run(
            [sys.executable, "-c", blocked, *JSON_CALLS[command]], capture_output=True, text=True, timeout=600
        )
        assert r.returncode == 1 and r.stdout == "", r.stderr
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), r.stderr


# the command, and the CLI leaving by the interpreter's ordinary exit, with finalization
ORDINARY_EXIT_MAIN = "import sys; from cayleyphase.cli import main; sys.exit(main(sys.argv[1:]))"
EXIT_FORMS = (("-m", "cayleyphase"), ("-c", ORDINARY_EXIT_MAIN))

# the benchmark's scan-ordered grid at a smaller budget: over 64 KiB of JSON
ORDERED_SCAN = (
    "scan", "--axis", "j2_over_j1:0:0.8:40", "--axis", "temperature:0.25:4:10", "--j1", "1",
    "--seeds", "2,3", "--max-iter", "2000", "--format", "json",
)
# each call, and the exit code both forms must give
EXIT_PARITY_CALLS = {
    "scan-workers-1": ((*ORDERED_SCAN, "--workers", "1"), 0),
    "scan-workers-2": ((*ORDERED_SCAN, "--workers", "2"), 0),
    "diagnose": ((*JSON_CALLS["diagnose"], "--format", "json"), 0),
    "curves": (JSON_CALLS["curves"], 0),
    "verify": (("verify",), 0),
    "version": (("--version",), 0),
    "help": (("--help",), 0),
    "usage-error": (("scan", "--bogus"), 1),
    # the cold corner: a trajectory underflows
    "range-error": (
        ("scan", "--j1", "1", "--j2", "-2", "--axis", "temperature:0.03:0.06:4", "--seeds", "0,1",
         "--max-iter", "5000"),
        2,
    ),
}


# the benchmark's scan-ordered grid, reduced: 10 KB of JSON, more than the
# stdout buffer holds
SMALL_ORDERED_SCAN = (
    "scan", "--axis", "j2_over_j1:0:0.8:4", "--axis", "temperature:0.25:4:3", "--j1", "1",
    "--seeds", "2,3", "--max-iter", "2000", "--format", "json",
)


# a scan's JSON and the config the CLI makes of it: the benchmark's
# scan-ordered grid at a smaller budget, over 64 KiB and all finite, and the
# coldest corner of the frustrated grid, whose period-4 runs have an infinite
# m2 residual
SCAN_JSON_GRIDS = {
    "finite": (
        ORDERED_SCAN,
        ScanConfig(
            axes=[AxisSpec("j2_over_j1", 0.0, 0.8, 40), AxisSpec("temperature", 0.25, 4.0, 10)],
            j1=1.0, seeds=[2, 3], max_iter=2000, format="json",
        ),
    ),
    "cold": (
        ("scan", "--axis", "j2_over_j1:-0.8:-0.6:2", "--axis", "temperature:0.25:0.5:2", "--j1", "1",
         "--seeds", "6,7", "--max-iter", "4000", "--format", "json"),
        make_config(
            axes=[AxisSpec("j2_over_j1", -0.8, -0.6, 2), AxisSpec("temperature", 0.25, 0.5, 2)],
            j1=1.0, j2=None, seeds=[6, 7], format="json",
        ),
    ),
}


# each writes its result to stdout: a short one (buffered until main's
# flush writes it), one past the stdout buffer (written before that flush),
# or one written in many blocks, whose failed block leaves bytes buffered
STDOUT_WRITE_CALLS = {
    "version": ("--version",),
    "help": ("--help",),
    "scan-help": ("scan", "--help"),
    "curves": JSON_CALLS["curves"],
    "verify": ("verify",),
    "scan": SMALL_ORDERED_SCAN,
    "scan-blocks": ORDERED_SCAN,
}


def past_slow_kernel_warning(stderr: str) -> str:
    """``stderr`` after the pure-Python kernel's warning, which comes first
    where that kernel runs."""
    if KERNEL_BACKEND != "python":
        return stderr
    first, _, rest = stderr.partition("\n")
    assert first.startswith("warning: the compiled trajectory kernel is unavailable"), stderr
    return rest


def buffered_env():
    # stdout block-buffered, as it is by default: the flush after the
    # result's last write then writes what is still buffered
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@functools.cache
def run_both_exits(*args):
    """The command run as ``python -m cayleyphase`` and in the ordinary-exit form.

    Cached: a later test reads the outputs of an earlier one.
    """
    return [
        subprocess.run([sys.executable, *form, *args], capture_output=True, env=buffered_env(), timeout=600)
        for form in EXIT_FORMS
    ]


class TestExit:
    @pytest.mark.parametrize("args, code", EXIT_PARITY_CALLS.values(), ids=EXIT_PARITY_CALLS)
    def test_command_matches_the_ordinary_exit(self, args, code):
        command, ordinary = run_both_exits(*args)
        assert command.returncode == ordinary.returncode == code, ordinary.stderr
        assert command.stdout == ordinary.stdout
        assert command.stderr == ordinary.stderr
        if args[0] == "scan" and code == 0:
            assert len(command.stdout) > 64 * 1024

    def test_output_file_matches_the_ordinary_exit(self, tmp_path):
        paths = [tmp_path / "command.json", tmp_path / "ordinary.json"]
        results = [
            subprocess.run(
                [sys.executable, *form, *ORDERED_SCAN, "--workers", "2", "--output", str(path)],
                capture_output=True, env=buffered_env(), timeout=600,
            )
            for form, path in zip(EXIT_FORMS, paths)
        ]
        command, ordinary = results
        assert command.returncode == ordinary.returncode == 0, ordinary.stderr
        assert command.stdout == ordinary.stdout == b""
        assert command.stderr == ordinary.stderr
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(paths[0].read_bytes()) > 64 * 1024
        # one worker or two, to stdout or to the file: the same bytes
        written = [run_both_exits(*ORDERED_SCAN, "--workers", w)[0].stdout for w in ("1", "2")]
        assert written == [paths[0].read_bytes()] * 2

    @pytest.mark.parametrize("grid", ["finite", "cold"])
    def test_scan_json_bytes(self, grid, tmp_path):
        # the rows are written in blocks: stdout and --output, buffered or
        # not, hold the bytes of json.dumps on the whole payload
        args, cfg = SCAN_JSON_GRIDS[grid]
        rows = run_scan(cfg)
        assert all(math.isfinite(r.m2_residual) for r in rows) == (grid == "finite")
        expected = _scan_json_reference(rows, cfg).encode()
        written = []
        for unbuffered in (False, True):
            env = buffered_env()
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            path = tmp_path / f"scan-{unbuffered}.json"
            for extra in ((), ("--output", str(path))):
                r = subprocess.run(
                    [sys.executable, "-m", "cayleyphase", *args, *extra], capture_output=True, env=env, timeout=600
                )
                assert (r.returncode, past_slow_kernel_warning(r.stderr.decode())) == (0, ""), r.stderr
                written.append(path.read_bytes() if extra else r.stdout)
        assert written == [expected] * 4

    def test_a_failing_scan_writes_nothing(self, tmp_path):
        # every row is computed before the first byte is written
        args, code = EXIT_PARITY_CALLS["range-error"]
        assert [r.stdout for r in run_both_exits(*args)] == [b"", b""]
        path = tmp_path / "scan.csv"
        r = subprocess.run(
            [sys.executable, "-m", "cayleyphase", *args, "--output", str(path)],
            capture_output=True, text=True, timeout=600,
        )
        assert r.returncode == code, r.stderr
        assert r.stdout == "" and not path.exists()
        assert past_slow_kernel_warning(r.stderr).startswith("numeric range error: "), r.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", STDOUT_WRITE_CALLS.values(), ids=STDOUT_WRITE_CALLS)
    def test_a_failed_write_to_stdout_is_reported(self, args, unbuffered):
        # a full disk: whether a write of the result or the flush after its
        # last write fails, one line says so, and the exit is 1
        env = buffered_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            r = subprocess.run(
                [sys.executable, "-m", "cayleyphase", *args],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=600,
            )
        assert r.returncode == 1, r.stderr
        reports = [line for line in r.stderr.splitlines() if "cannot write" in line]
        assert reports == ["cannot write <stdout>: [Errno 28] No space left on device"], r.stderr
        assert "Traceback" not in r.stderr and "Exception ignored" not in r.stderr, r.stderr

    def test_a_closed_stdout_descriptor(self, tmp_path):
        # descriptor 1 closed before the start leaves sys.stdout None: a
        # result for stdout is a failed write, one for --output is not
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "cayleyphase", *args],
                stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1), timeout=600,
            )

        r = run("--version")
        assert r.returncode == 1 and r.stderr.startswith("cannot write <stdout>: "), r.stderr
        assert "Traceback" not in r.stderr, r.stderr
        r = run(*JSON_CALLS["curves"], "--output", str(tmp_path / "curves.csv"))
        assert (r.returncode, r.stderr) == (0, "")
        assert (tmp_path / "curves.csv").read_text().startswith("j2,j1_plus,j1_minus\n")

    @pytest.mark.parametrize("args", [SMALL_ORDERED_SCAN, JSON_CALLS["curves"]], ids=["scan", "curves"])
    def test_a_closed_pipe_ends_quietly(self, args):
        # the reader has gone before the command writes: the scan fails in
        # a write, the buffered curves table in the flush after its last write
        read, write = os.pipe()
        os.close(read)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "cayleyphase", *args],
                stdout=write, stderr=subprocess.PIPE, text=True, env=buffered_env(), timeout=600,
            )
        finally:
            os.close(write)
        assert r.returncode == 1, r.stderr
        assert "Traceback" not in r.stderr and "Exception ignored" not in r.stderr, r.stderr

    def test_the_command_imports_neither_pathlib_nor_bisect(self):
        # -S: no .pth file of site-packages preloads modules
        listed = "import sys, cayleyphase.cli; print(sorted({'bisect', 'numpy', 'pathlib', 'typing'} & set(sys.modules)))"
        r = subprocess.run([sys.executable, "-S", "-c", listed], capture_output=True, text=True, timeout=600)
        assert r.returncode == 0 and r.stdout == "[]\n", r.stderr

    def test_the_command_skips_finalization(self):
        r = subprocess.run(
            [sys.executable, "-v", "-m", "cayleyphase", "--version"], capture_output=True, text=True, timeout=600
        )
        assert r.returncode == 0 and r.stdout == f"cayleyphase {cayleyphase.__version__}\n"
        teardown = [line for line in r.stderr.splitlines() if line.startswith(("# cleanup", "# destroy"))]
        assert teardown == []
