#!/usr/bin/env python3
"""cayleyphase benchmark: real CLI calls, checked, timed end to end.

    python3 perfbench/run.py --workload scan-modulated --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it builds the package from source into ``.bench_build``,
times fresh ``python -m cayleyphase`` subprocesses (one at a time, closed loop,
one client) for ``--seconds`` and prints the end-to-end metrics.  With
``--trace 1`` it replays the same calls in-process through
``cayleyphase.cli.main`` with spans at the layer boundaries and prints the
per-layer metrics.  Every output is checked against ``reference.json``.  The
last line of standard output is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import proc
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
CALL_TIMEOUT_S = 150.0
# a timed run ends within this many seconds even if a call hangs
RUN_BUDGET_S = 160.0


class Gate:
    """Counts operations and failures; a failure makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def note(self, ok: bool, what: str) -> None:
        # a whole-run check that is not an operation of its own
        if not ok:
            self.problems.append(what)


def build() -> Path:
    """Build the package from source once per source tree; returns the lib dir."""
    sources = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    sources += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts and ".egg-info" not in str(p))
    digest = hashlib.sha256()
    for path in sources:
        if path.exists():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    lib = WORK / "lib" / digest.hexdigest()[:16]
    if (lib / "cayleyphase" / "__init__.py").exists():
        return lib
    setup = ["setup.py"] if (ROOT / "setup.py").exists() else ["-c", "import setuptools; setuptools.setup()"]
    cmd = [sys.executable, *setup, "-q", "build", "--build-base", str(WORK / "build"), "--build-lib", str(lib), "--force"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0 or not (lib / "cayleyphase" / "__init__.py").exists():
        raise RuntimeError(f"build failed:\n{done.stdout}{done.stderr}")
    return lib


def metadata(env: dict, seed: int, scratch: Path) -> dict:
    code = (
        "import json, cayleyphase, numpy, scipy\n"
        "try:\n    import cayleyphase._trajectory; compiled = True\n"
        "except ImportError:\n    compiled = False\n"
        "print(json.dumps({'kernel_backend': cayleyphase.KERNEL_BACKEND, 'compiled_kernel_imports': compiled,"
        " 'numpy': numpy.__version__, 'scipy': scipy.__version__, 'cayleyphase': cayleyphase.__version__}))"
    )
    res = proc.run([sys.executable, "-c", code], env, ROOT, scratch, timeout=60)
    if res.code != 0:
        raise RuntimeError(f"cannot import the built package:\n{res.stderr}")
    meta = json.loads(res.stdout)
    meta.update(
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        cpu=_cpu_model(),
        commit=_git_commit(),
        seed=seed,
    )
    return meta


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def _check_call(gate: Gate, argv, res: proc.Result, expected) -> dict | None:
    """Gate one subprocess call; returns its summary when it passed."""
    what = "cayleyphase " + " ".join(argv)
    if res.timed_out or res.code != 0:
        gate.check(False, f"{what}: exit {res.code}{' (timeout)' if res.timed_out else ''}: {res.stderr.strip()[-300:]}")
        return None
    try:
        summary = wl.summarize(argv, res.stdout)
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        gate.check(False, f"{what}: malformed output ({exc})")
        return None
    if expected is None:
        gate.check(False, f"{what}: no recorded reference for this call")
        return None
    return summary if gate.check(wl.matches(expected, summary), f"{what}: output differs from the reference") else None


def measure(args, env, expected, scratch, gate: Gate) -> tuple[dict, dict]:
    python = [sys.executable, "-m", "cayleyphase"]
    deadline = time.perf_counter() + RUN_BUDGET_S

    def gated(argv):
        timeout = max(1.0, min(CALL_TIMEOUT_S, deadline - time.perf_counter()))
        res = proc.run(python + argv, env, ROOT, scratch, timeout)
        return res, _check_call(gate, argv, res, expected.get(wl.reference_key(argv)))

    calls = wl.calls(args.workload, args.size, args.seed)
    setup, walls, rss = [], [], []
    records, passes = 0, 0
    last_scan = None  # standard output of the last scan that passed the gate
    t_start = time.perf_counter()
    while True:
        # set-up is sampled all through the run: once before every pass, and
        # by every --version call of the workload itself
        res, _ = gated(["--version"])
        setup.append(res.wall_s)
        for argv in calls:
            res, summary = gated(argv)
            walls.append(res.wall_s)
            rss.append(res.peak_rss_mb)
            if argv == ["--version"]:
                setup.append(res.wall_s)
            if summary is not None:
                records += wl.records(summary)
                if argv[0] == "scan":
                    last_scan = res.stdout
        passes += 1
        elapsed = time.perf_counter() - t_start
        # start another pass only if it should end within --seconds
        if elapsed * (passes + 1) / passes > args.seconds:
            break

    extra = {}
    if args.workload == "scan-ordered":
        # README contract: the rows do not depend on --workers
        argv = wl.scan_argv(args.workload, args.size, args.seed, workers=1)
        res, summary = gated(argv)
        if last_scan is None:
            gate.check(False, "no --workers 2 scan passed, so there is nothing to compare --workers 1 with")
        elif summary is not None:
            same = json.loads(res.stdout)["results"] == json.loads(last_scan)["results"]
            gate.check(same, "scan-ordered rows differ between --workers 1 and --workers 2")
            extra["workers_1_vs_2_file_bytes_identical"] = res.stdout == last_scan
            extra["workers_1_wall_s"] = res.wall_s

    busy = sum(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "rows_per_s": records / busy,
        "calls_per_s": len(walls) / busy,
        "call_p50_s": statistics.median(walls),
        "peak_rss_mb": max(rss),
    }
    detail = {"calls": len(walls), "passes": passes, "records": records, "call_walls_s": walls, "setup_walls_s": setup, **extra}
    tail = tail_percentile(walls)
    if tail is not None:
        detail[f"call_p{tail[0]}_s"] = tail[1]
    return metrics, detail


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def traced(args, env, expected, scratch, gate: Gate) -> tuple[dict, dict]:
    import cayleyphase as cp
    import probe
    from cayleyphase import cli
    from tracer import LAYERS, Tracer

    t_start = time.perf_counter()
    # the probes come first; the replays fill the rest of --seconds
    imports = probe.import_times(env, ROOT, scratch)
    costs = probe.layer_costs(cp)
    kernel = probe.kernel(args.seed)
    gate.check(kernel["identical"], "trajectory backends disagree on the kernel workload")
    ordered = wl.scan_argv("scan-ordered", args.size, args.seed, workers=1)
    ordered_pool = wl.scan_argv("scan-ordered", args.size, args.seed, workers=2)
    pool_speedup = probe.run_scan_seconds(cli, ordered) / probe.run_scan_seconds(cli, ordered_pool)
    # run_scan self time on the scan-ordered grid, whatever the workload
    scan_tracer = Tracer()
    scan_tracer.install()
    try:
        probe.run_scan_seconds(cli, ordered)
    finally:
        scan_tracer.uninstall()
    scan_self_s = scan_tracer.by_name["scan.run_scan"][2]

    calls = wl.calls(args.workload, args.size, args.seed)
    if args.workload == "scan-ordered":
        # spans inside pool workers are not collected; scan.pool_speedup
        # gives the pool's effect
        calls = [ordered]
    expected_steps = dict.fromkeys(probe.KINDS, 0)
    for argv in calls:
        for kind, n in expected.get(wl.reference_key(argv), {}).get("steps", {}).items():
            expected_steps[kind] += n

    tracer = Tracer()
    next_id = 0

    def replay(traced_run: bool) -> float:
        nonlocal next_id
        total = 0.0
        outcomes_before = len(tracer.outcomes)
        for argv in calls:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                if traced_run:
                    tracer.trace_id = next_id
                    next_id += 1
                    code = tracer.call("cli.main", "cli", cli.main, argv)
                else:
                    code = cli.main(argv)
                total += time.perf_counter() - t0
            res = proc.Result(code, 0.0, 0.0, buf.getvalue(), "", False)
            _check_call(gate, argv, res, expected.get(wl.reference_key(argv)))
        if traced_run:
            got = dict.fromkeys(probe.KINDS, 0)
            for kind, n in tracer.outcomes[outcomes_before:]:
                got[kind] += n
            gate.note(got == expected_steps, f"replay step counts {got} differ from the reference {expected_steps}")
        return total

    plain, spanned = [], []
    t_replays = time.perf_counter()
    while True:
        # alternate the order so warm-up does not bias the overhead
        first_traced = len(spanned) % 2 == 1
        for traced_run in (first_traced, not first_traced):
            if traced_run:
                tracer.clear()
                tracer.install()
                try:
                    spanned.append(replay(True))
                finally:
                    tracer.uninstall()
            else:
                plain.append(replay(False))
        now = time.perf_counter()
        # start another pair only if it should end within --seconds
        if now + (now - t_replays) / len(spanned) > t_start + args.seconds:
            break

    replays = len(spanned)
    self_s = tracer.self_time
    names = tracer.by_name
    kinds = dict.fromkeys(probe.KINDS, 0)
    runs = dict.fromkeys(probe.KINDS, 0)
    for kind, n in tracer.outcomes:
        kinds[kind] += n
        runs[kind] += 1
    total_runs = sum(runs.values())

    replay_s = sum(spanned) / replays
    modeled = len(calls) * imports["import.cayleyphase_s"] + replay_s
    shares = {"share.import": 100.0 * len(calls) * imports["import.cayleyphase_s"] / modeled}
    for layer in LAYERS:
        shares[f"share.{layer}"] = 100.0 * self_s[layer] / replays / modeled
    python_kernel = kernel["backends"]["python"]["steps_per_s"]
    selected = kernel["backends"][cp.KERNEL_BACKEND]["steps_per_s"]
    figures = {
        **imports,
        **costs,
        **{f"dynamics.python.steps_per_s.{k}": python_kernel[k] for k in probe.KINDS},
        **{f"dynamics.kernel.steps_per_s.{k}": selected[k] for k in probe.KINDS},
        **{f"dynamics.steps.{k}": kinds[k] // replays for k in probe.KINDS},
        "dynamics.steps.total": sum(kinds.values()) // replays,
        "dynamics.budget_exhausted_ratio": runs["aperiodic"] / total_runs if total_runs else 0.0,
        "dynamics.iterate_share": 100.0 * names.get("dynamics.iterate", (0, 0.0, 0.0))[1] / sum(spanned),
        "scan.self_s": scan_self_s,
        "scan.pool_speedup": pool_speedup,
        "cli.self_s": self_s["cli"] / (replays * len(calls)),
        "trace.overhead_ratio": statistics.median(spanned) / statistics.median(plain) - 1.0,
        **shares,
    }
    # the spans of the last traced replay
    trace_file = WORK / "results" / f"spans-{args.workload}-{args.size}-s{args.seed}.json"
    tracer.dump(trace_file)
    detail = {
        "replays": replays,
        "replay_plain_s": plain,
        "replay_traced_s": spanned,
        "layer_self_s_per_replay": {k: v / replays for k, v in self_s.items()},
        "spans_per_replay": {k: [n // replays, t / replays, own / replays] for k, (n, t, own) in sorted(names.items())},
        "kernel": kernel,
        "runs_by_kind": runs,
        "spans_file": str(trace_file.relative_to(ROOT)),
    }
    return figures, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=wl.SIZES, default="full", help="tiny: smoke-test inputs")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cayleyphase").is_dir() or not spec_path.exists():
        print("no cayleyphase source tree here; nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    scratch = WORK / "work"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    scratch.mkdir(parents=True, exist_ok=True)

    lib = build()
    env = dict(os.environ, PYTHONPATH=str(lib))
    sys.path.insert(0, str(lib))
    expected = json.loads(args.reference.read_text())
    gate = Gate()
    meta = metadata(env, args.seed, scratch)

    if args.trace:
        metrics, detail = traced(args, env, expected, scratch, gate)
        declared = spec["per_layer"]
    else:
        metrics, detail = measure(args, env, expected, scratch, gate)
        declared = spec["end_to_end"]
    missing = {m["name"] for m in declared} - set(metrics)
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics this run does not measure: {sorted(missing)}")

    correct = gate.failed == 0 and not gate.problems
    print(f"workload {args.workload} ({args.size}) seed {args.seed} trace {args.trace}")
    for key in ("kernel_backend", "compiled_kernel_imports", "nproc", "cpu", "python", "numpy", "scipy", "commit"):
        print(f"  {key}: {meta[key]}")
    for m in declared:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    if args.trace:
        # figures that read 0 on some workload are printed, not declared
        print("  not declared:")
        for name in sorted(set(metrics) - {m["name"] for m in declared}):
            print(f"    {name} = {metrics[name]:.6g}")
        runs = detail["runs_by_kind"]
        per = detail["replays"]
        print(f"    (budget exhausted in {runs['aperiodic'] // per} of {sum(runs.values()) // per} runs per replay)")
        print(f"  per replay of {detail['replays']}: layer self time (s) and spans")
        for layer, t in detail["layer_self_s_per_replay"].items():
            spans = sum(n for name, (n, *_) in detail["spans_per_replay"].items() if name.split(".")[0] == layer)
            print(f"    {layer:<10} {t:10.4f} s {spans:8d} spans")
    else:
        for key, value in detail.items():
            if key.startswith("call_p"):
                print(f"  {key} = {value:.6g} s (of {detail['calls']} calls)")
        print(f"  failed_ratio = {gate.failed}/{gate.attempted}")
    for problem in gate.problems:
        print(f"  FAILED: {problem}")
    result_file = WORK / "results" / f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}.json"
    result_file.write_text(json.dumps({"metadata": meta, "metrics": metrics, "detail": detail, "problems": gate.problems}, indent=1))
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
