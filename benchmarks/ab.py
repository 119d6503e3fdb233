"""Parent/change timing of the benchmark's CLI calls, from fresh builds.

Builds the package twice with ``setup.py -q build`` into a temporary
directory, so no stale bytecode is timed: the commit ``--parent`` (from
``git archive``) and this working tree.  Then runs each benchmark workload's
calls (size ``full``, read from ``perfbench/workloads.py``) on both sides as
fresh ``python -m cayleyphase`` processes with ``PYTHONDONTWRITEBYTECODE=1``:

- stdout and stderr go to files, and every child is reaped with ``wait4``,
  which also gives its peak RSS and its user plus system CPU time, that of
  a scan's worker threads included;
- the two sides alternate which runs first from round to round;
- exit code, stdout and stderr must agree on every call.  A mismatch is
  recorded and the script exits 1.  A call that differs is also compared as
  the benchmark's gate compares it (exit code and ``workloads.summarize`` of
  stdout, with ``workloads.matches``); the calls that differ there too are
  listed as ``summary_mismatches``, so a change of layout or of stderr alone
  leaves that list empty;
- each round also times a bare ``python -c pass``, the floor of any call,
  and a bare ``python -c "import numpy"`` with ``OPENBLAS_NUM_THREADS=1``
  as ``cli.run`` sets it, the floor of every ``scan`` and ``diagnose`` call,
  whose starts need numpy.

Peak RSS is taken as the benchmark defines ``peak_rss_mb``: per round and
side, the maximum over that pass's calls.  Its median and interquartile range
across rounds are reported, with the rounds each side was lower in and each
call's median.

It writes medians and interquartile ranges of wall and CPU time, per call and
per pass over each workload, the rounds each side won, both commits and the
machine, as JSON.  Each round also gives a paired change/parent ratio of every
workload's pass wall and CPU time; the ratios are listed with their median and
quartiles, which cancel the drift of a busy host that both sides of a round
share:

    python benchmarks/ab.py --parent HEAD~1 --out BENCH_<n>.json [--rounds 21] [--seed 1]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as wl  # noqa: E402

SIDES = ("parent", "change")


def git(*args: str) -> str | None:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def build(source: Path, into: Path) -> Path:
    """Build the package in ``source`` into ``into``; return its lib directory."""
    lib = into / "lib"
    cmd = [sys.executable, "setup.py", "-q", "build", "--build-base", str(into / "build"), "--build-lib", str(lib), "--force"]
    done = subprocess.run(cmd, cwd=source, capture_output=True, text=True)
    if done.returncode != 0 or not (lib / "cayleyphase" / "__init__.py").exists():
        raise SystemExit(f"build of {source} failed:\n{done.stdout}{done.stderr}")
    return lib


def export(rev: str, into: Path) -> Path:
    """The files of commit ``rev``, as ``git archive`` writes them."""
    archive = into.with_suffix(".tar")
    into.mkdir()
    for cmd in (["git", "archive", "--format=tar", "-o", str(archive), rev], ["tar", "-xf", str(archive), "-C", str(into)]):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return into


def spawn(argv: list[str], env: dict, scratch: Path) -> dict:
    """Run ``argv`` with stdout and stderr to files; reap it with ``wait4``."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=scratch)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "result": (child.returncode, out_path.read_bytes(), err_path.read_bytes()),
    }


def same_summary(argv: list[str], parent: tuple, change: tuple) -> bool:
    """Whether two ``(exit code, stdout, ...)`` results agree as the gate compares them."""
    if parent[0] != change[0]:
        return False
    try:
        return wl.matches(wl.summarize(argv, parent[1].decode()), wl.summarize(argv, change[1].decode()))
    except (ValueError, KeyError, IndexError):  # malformed output, as the gate counts it
        return False


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def ratios(parent: list[float], change: list[float]) -> dict:
    """Each round's change/parent ratio, with their median and quartiles."""
    per_round = [c / p for p, c in zip(parent, change)]
    q1, _, q3 = statistics.quantiles(per_round, n=4)
    return {"median": statistics.median(per_round), "q1": q1, "q3": q3, "per_round": per_round}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version()}


def wins(parent: list[float], change: list[float]) -> dict:
    return {"parent": sum(p < c for p, c in zip(parent, change)), "change": sum(c < p for p, c in zip(parent, change))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the commit to compare the working tree with")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (selects the --seeds lists)")
    args = parser.parse_args(argv)
    if args.rounds < 4:
        parser.error("--rounds must be at least 4, for quartiles")
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    if parent_commit is None:
        parser.error(f"--parent {args.parent!r} is not a commit")
    dirty = git("status", "--porcelain", "--", "src", "setup.py", "pyproject.toml")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        libs = {"parent": build(export(parent_commit, tmp / "parent-src"), tmp / "parent"), "change": build(ROOT, tmp / "change")}
        env = {side: dict(os.environ, PYTHONPATH=str(lib), PYTHONDONTWRITEBYTECODE="1") for side, lib in libs.items()}
        for e in env.values():
            e.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, the default
        calls = {name: wl.calls(name, "full", args.seed) for name in wl.WORKLOADS}
        wall = {(name, k, side): [] for name, cs in calls.items() for k in range(len(cs)) for side in SIDES}
        cpu = {key: [] for key in wall}
        rss = {key: [] for key in wall}
        interpreter, numpy_import, mismatches, summary_mismatches = [], [], [], []
        numpy_env = dict(env["change"], OPENBLAS_NUM_THREADS="1")
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            interpreter.append(spawn([sys.executable, "-c", "pass"], env["change"], tmp)["wall_s"])
            numpy_import.append(spawn([sys.executable, "-c", "import numpy"], numpy_env, tmp)["wall_s"])
            for name, cs in calls.items():
                for k, call in enumerate(cs):
                    results = {}
                    for side in order:
                        done = spawn([sys.executable, "-m", "cayleyphase", *call], env[side], tmp)
                        wall[name, k, side].append(done["wall_s"])
                        cpu[name, k, side].append(done["cpu_s"])
                        rss[name, k, side].append(done["peak_rss_mb"])
                        results[side] = done["result"]
                    if results["parent"] != results["change"]:
                        mismatches.append(" ".join(call))
                        if not same_summary(call, results["parent"], results["change"]):
                            summary_mismatches.append(" ".join(call))
            print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)

    report = {
        "what": "wall time, CPU time and peak RSS of each benchmark workload's CLI calls, python -m cayleyphase ARGS,"
        " on a fresh build of the parent commit and of the working tree; fresh processes",
        "machine": machine(),
        "commits": {
            "parent": parent_commit,
            "change": git("rev-parse", "HEAD"),
            "change_source_modified_since_commit": None if dirty is None else dirty != "",
        },
        "settings": {"rounds": args.rounds, "seed": args.seed, "size": "full", "PYTHONDONTWRITEBYTECODE": "1"},
        "interpreter_s": stats(interpreter),
        "numpy_import_s": stats(numpy_import),
        "identical_output": not mismatches,
        "mismatches": sorted(set(mismatches)),
        "summary_mismatches": sorted(set(summary_mismatches)),
        "workloads": {},
    }
    for name, cs in calls.items():
        passes = {side: [sum(wall[name, k, side][r] for k in range(len(cs))) for r in range(args.rounds)] for side in SIDES}
        cpu_passes = {side: [sum(cpu[name, k, side][r] for k in range(len(cs))) for r in range(args.rounds)] for side in SIDES}
        peaks = {side: [max(rss[name, k, side][r] for k in range(len(cs))) for r in range(args.rounds)] for side in SIDES}
        report["workloads"][name] = {
            "calls_per_pass": len(cs),
            "pass_s": {side: stats(passes[side]) for side in SIDES},
            "faster_in_rounds": wins(passes["parent"], passes["change"]),
            "pass_cpu_s": {side: stats(cpu_passes[side]) for side in SIDES},
            "less_cpu_in_rounds": wins(cpu_passes["parent"], cpu_passes["change"]),
            "change_over_parent": {
                "pass_s": ratios(passes["parent"], passes["change"]),
                "pass_cpu_s": ratios(cpu_passes["parent"], cpu_passes["change"]),
            },
            "peak_rss_mb": {side: stats(peaks[side]) for side in SIDES},
            "lower_peak_rss_in_rounds": wins(peaks["parent"], peaks["change"]),
            "per_call": [
                {
                    "argv": " ".join(call),
                    "wall_s": {side: stats(wall[name, k, side]) for side in SIDES},
                    "faster_in_rounds": wins(wall[name, k, "parent"], wall[name, k, "change"]),
                    "cpu_s": {side: stats(cpu[name, k, side]) for side in SIDES},
                    "peak_rss_mb_median": {side: statistics.median(rss[name, k, side]) for side in SIDES},
                }
                for k, call in enumerate(cs)
            ],
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
