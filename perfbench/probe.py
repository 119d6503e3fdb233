"""Per-call layer costs on fixed inputs, the kernel on both backends, and
import times.

These feed the traced run's per-layer metrics.  Each layer function is timed
on the same fixed inputs whatever the workload, so its per-call cost is a
property of the layer; how often a workload calls it comes from the spans.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys
import time

import numpy as np

import proc
from workloads import DIAGNOSE_POINTS, PARTITION_POINT

# the kernel workload of the former trajectory benchmark: fast fixed points,
# two- and four-cycles, and competing-coupling points that exhaust the budget
KERNEL_POINTS = (
    (0.1, 0.05, 3.0),
    (1.0, 0.15, 0.6),
    (0.0, -math.log(2.0), 1.0),
    (1.0, -0.6, 0.30),
    (1.0, -0.4, 0.36),
)
KERNEL_STARTS = 8
KERNEL_MAX_ITER = 2000
KINDS = ("fixed", "cycle", "aperiodic")


def per_call(fn, arg_lists, min_time: float = 0.2) -> float:
    """Seconds per call, cycling through ``arg_lists`` for at least ``min_time``."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        for args in arg_lists:
            fn(*args)
        calls += len(arg_lists)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            return elapsed / calls


def layer_costs(cp) -> dict[str, float]:
    """Per-call cost of each layer function on the point-analysis inputs."""
    couplings = [cp.Couplings(*pt) for pt in DIAGNOSE_POINTS]
    params = [cp.derive_params(c) for c in couplings]
    start = cp.StateVector(1.0, 0.37, 0.11, 0.92)
    outcomes = [(p, cp.iterate(p, start)) for p in params]
    beta = 1.0 / 0.8
    j2s = [(float(j2), beta) for j2 in np.linspace(-2.0, -0.1, 80)]
    ferro_t0 = time.perf_counter()
    candidates = sum(len(cp.solve_ferro_fixed_points(p)) for p in params)
    ferro_s = (time.perf_counter() - ferro_t0) / len(params)
    part = cp.Couplings(*PARTITION_POINT)
    part_p = cp.derive_params(part)
    rows = cp.run_scan(
        cp.ScanConfig(
            axes=[cp.AxisSpec("j2_over_j1", 0.0, 0.8, 10), cp.AxisSpec("temperature", 0.25, 4.0, 4)],
            j1=1.0, seeds=[0, 1], max_iter=2000,
        )
    ) * 10
    fmt_cfg = cp.ScanConfig(axes=[cp.AxisSpec("temperature", 0.25, 4.0, 4)], j1=1.0, j2=0.0, format="json")
    return {
        "core.derive_params_us": 1e6 * per_call(cp.derive_params, [(c,) for c in couplings]),
        "symmetric.phase_counts_us": 1e6 * per_call(cp.phase_counts, [(c,) for c in couplings]),
        "symmetric.solve_fixed_points_us": 1e6 * per_call(cp.solve_fixed_points, [(p,) for p in params]),
        "symmetric.solve_two_cycles_us": 1e6 * per_call(cp.solve_two_cycles, [(p,) for p in params]),
        "symmetric.critical_curve_us": 1e6 * per_call(cp.critical_curve, j2s),
        "dynamics.classify_phase_us": 1e6 * per_call(cp.classify_phase, outcomes),
        "ferro.solve_ms": 1e3 * ferro_s,
        "ferro.candidates": candidates,
        "partition.enumerate_ms": 1e3 * per_call(cp.enumerate_partition, [(part, 3)]),
        "partition.recurrence_log_ms": 1e3 * per_call(cp.partition_recurrence_log, [(part_p, 1000)]),
        "verify.run_ms": 1e3 * per_call(cp.run_verify, [()], min_time=0.5),
        "scan.format_csv_ms": 1e3 * per_call(cp.format_csv, [(rows,)]),
        "scan.format_json_ms": 1e3 * per_call(cp.format_json, [(rows, fmt_cfg)]),
    }


def _kernel_tasks(seed: int) -> list[tuple]:
    import cayleyphase as cp

    rng = np.random.default_rng(seed)
    tasks = []
    for pt in KERNEL_POINTS:
        p = cp.derive_params(cp.Couplings(*pt))
        for _ in range(KERNEL_STARTS):
            u0 = 10.0 ** rng.uniform(-2.0, 2.0, size=4)
            m = float(max(u0))
            tasks.append((p.a, p.b, *(float(x) / m for x in u0), KERNEL_MAX_ITER, 1e-12, 200, 64))
    return tasks


def _time_kernel(run_trajectory, tasks):
    steps = dict.fromkeys(KINDS, 0)
    busy = dict.fromkeys(KINDS, 0.0)
    outs = []
    for args in tasks:
        t0 = time.perf_counter()
        out = run_trajectory(*args)
        dt = time.perf_counter() - t0
        kind = KINDS[out[0]]
        steps[kind] += out[2]
        busy[kind] += dt
        outs.append(out)
    rates = {k: (steps[k] / busy[k] if busy[k] > 0 else 0.0) for k in KINDS}
    return rates, steps, outs


def kernel(seed: int) -> dict:
    """Steps/s per outcome kind on each importable backend, and whether the
    backends agree bit for bit on the kernel workload."""
    from cayleyphase import _trajectory_py

    tasks = _kernel_tasks(seed)
    out = {"backends": {}, "identical": True}
    rates, steps, ref = _time_kernel(_trajectory_py.run_trajectory, tasks)
    out["backends"]["python"] = {"steps_per_s": rates, "steps": steps}
    try:
        from cayleyphase import _trajectory  # type: ignore[attr-defined]
    except ImportError:
        return out
    rates, steps, outs = _time_kernel(_trajectory.run_trajectory, tasks)
    out["backends"][_trajectory.BACKEND] = {"steps_per_s": rates, "steps": steps}
    out["identical"] = outs == ref
    return out


def run_scan_seconds(cli, argv: list[str]) -> float:
    """In-process ``run_scan`` time of one ``cli.main(argv)`` scan call."""
    times = []
    original = cli.run_scan

    def timed(cfg):
        t0 = time.perf_counter()
        rows = original(cfg)
        times.append(time.perf_counter() - t0)
        return rows

    cli.run_scan = timed
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        cli.run_scan = original
    if code != 0:
        raise RuntimeError(f"scan exited with {code}")
    return times[0]


def import_times(env, cwd, scratch, repeats: int = 3) -> dict[str, float]:
    """Fresh-interpreter import time over bare start-up, and the part of it
    spent importing scipy."""

    def median_wall(code: str) -> float:
        walls = []
        for _ in range(repeats):
            res = proc.run([sys.executable, "-c", code], env, cwd, scratch, timeout=60)
            if res.code != 0:
                raise RuntimeError(f"python -c {code!r} failed: {res.stderr.strip()}")
            walls.append(res.wall_s)
        return statistics.median(walls)

    bare = median_wall("pass")
    full = median_wall("import cayleyphase")
    res = proc.run([sys.executable, "-X", "importtime", "-c", "import cayleyphase"], env, cwd, scratch, timeout=60)
    return {
        "import.cayleyphase_s": full - bare,
        "import.scipy_s": scipy_import_seconds(res.stderr),
    }


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the outermost ``scipy`` modules."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total_us = 0
    ancestors: list[str] = []
    # the log lists children before parents; walk it parents first
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            total_us += cumulative
        ancestors.append(name)
    return total_us / 1e6
