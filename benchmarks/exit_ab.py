"""A/B timing of how a CLI call ends.

``python -m cayleyphase`` leaves by ``os._exit`` once ``main`` has returned
and its output is flushed (``cayleyphase.cli.run``).  The ordinary-exit form
``python -c "...; sys.exit(main(sys.argv[1:]))"`` runs the same ``main`` and
then lets the interpreter finalize.  This script builds the package from
this checkout with ``setup.py build`` into a temporary directory, so no stale
bytecode is timed, and runs each benchmark workload's calls (size ``full``,
read from ``perfbench/workloads.py``) as fresh processes in both forms:

- **wall**: spawn to reap of each call, stdout and stderr to files, every
  child reaped with ``wait4`` (which also gives its peak RSS).  The two
  forms alternate which runs first from round to round, and their stdout,
  stderr and exit code must agree on every call.
- **tail**: the same two exits behind a thin wrapper that stamps the
  monotonic clock when ``main`` returns; the tail is that stamp to the reap.
- **interpreter**: a bare ``python -c pass``, the floor of any call.

It writes medians and interquartile ranges, per workload and per call, with
the machine and the commit, as JSON:

    python benchmarks/exit_ab.py --out exit_ab.json [--rounds 21] [--seed 1]
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

ORDINARY_EXIT = "import sys; from cayleyphase.cli import main; sys.exit(main(sys.argv[1:]))"
FORMS = {"command": ["-m", "cayleyphase"], "ordinary": ["-c", ORDINARY_EXIT]}


def stamped_forms(stamp: Path) -> dict[str, list[str]]:
    """Both exits, with ``main`` wrapped to write the monotonic clock to
    ``stamp`` as it returns."""
    prelude = (
        "import sys, time, cayleyphase.cli as cli\n"
        "def stamped(argv=None, main=cli.main):\n"
        "    code = main(argv)\n"
        f"    with open({str(stamp)!r}, 'w') as f: f.write(str(time.monotonic_ns()))\n"
        "    return code\n"
        "cli.main = stamped\n"
    )
    return {
        # __main__ calls cli.run, which calls the module's (wrapped) main
        "command": ["-c", prelude + "import runpy; runpy.run_module('cayleyphase', run_name='__main__')"],
        "ordinary": ["-c", prelude + "sys.exit(cli.main(sys.argv[1:]))"],
    }


def build(into: Path) -> Path:
    lib = into / "lib"
    cmd = [sys.executable, "setup.py", "-q", "build", "--build-base", str(into / "build"), "--build-lib", str(lib), "--force"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0 or not (lib / "cayleyphase" / "__init__.py").exists():
        raise SystemExit(f"build failed:\n{done.stdout}{done.stderr}")
    return lib


def spawn(argv: list[str], env: dict, scratch: Path) -> dict:
    """Run ``argv`` with stdout and stderr to files; reap it with ``wait4``."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=scratch)
        _, status, usage = os.wait4(child.pid, 0)
        reaped_ns = time.monotonic_ns()
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "reaped_ns": reaped_ns,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "result": (child.returncode, out_path.read_bytes(), err_path.read_bytes()),
    }


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1, "n": len(values)}


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def git(*args):
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    dirty = git("status", "--porcelain", "--", "src", "setup.py", "pyproject.toml")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": git("rev-parse", "HEAD"),
        "source_modified_since_commit": None if dirty is None else dirty != "",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (selects the --seeds lists)")
    args = parser.parse_args(argv)
    if args.rounds < 4:
        parser.error("--rounds must be at least 4, for quartiles")

    with tempfile.TemporaryDirectory(prefix="exit_ab-") as tmp:
        tmp = Path(tmp)
        lib = build(tmp)
        env = dict(os.environ, PYTHONPATH=str(lib), PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, the default
        stamp = tmp / "stamp"
        tailed = stamped_forms(stamp)
        calls = {name: wl.calls(name, "full", args.seed) for name in wl.WORKLOADS}
        wall = {(name, k, form): [] for name, cs in calls.items() for k in range(len(cs)) for form in FORMS}
        tail = {key: [] for key in wall}
        rss = {key: [] for key in wall}
        interpreter, mismatches = [], []
        for r in range(args.rounds):
            order = list(FORMS) if r % 2 == 0 else list(FORMS)[::-1]
            interpreter.append(spawn([sys.executable, "-c", "pass"], env, tmp)["wall_s"])
            for name, cs in calls.items():
                for k, call in enumerate(cs):
                    results = {}
                    for form in order:
                        done = spawn([sys.executable, *FORMS[form], *call], env, tmp)
                        wall[name, k, form].append(done["wall_s"])
                        rss[name, k, form].append(done["peak_rss_mb"])
                        results[form] = done["result"]
                    if results["command"] != results["ordinary"]:
                        mismatches.append(" ".join(call))
                    for form in order:
                        stamp.unlink(missing_ok=True)  # a call that never stamps fails loudly
                        done = spawn([sys.executable, *tailed[form], *call], env, tmp)
                        tail[name, k, form].append((done["reaped_ns"] - int(stamp.read_text())) / 1e6)
            print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)

    report = {
        "what": "wall time of each benchmark workload's CLI calls, ending by os._exit after a flush"
        " (command) or by the interpreter's ordinary exit (ordinary); fresh build, fresh processes",
        "forms": {"command": "python -m cayleyphase ARGS", "ordinary": f'python -c "{ORDINARY_EXIT}" ARGS'},
        "machine": machine(),
        "settings": {"rounds": args.rounds, "seed": args.seed, "size": "full", "PYTHONDONTWRITEBYTECODE": "1"},
        "interpreter_s": stats(interpreter),
        "identical_output": not mismatches,
        "mismatches": sorted(set(mismatches)),
        "workloads": {},
    }
    for name, cs in calls.items():
        passes = {form: [sum(wall[name, k, form][r] for k in range(len(cs))) for r in range(args.rounds)] for form in FORMS}
        report["workloads"][name] = {
            "calls_per_pass": len(cs),
            "pass_s": {form: stats(passes[form]) for form in FORMS},
            "command_faster_in_rounds": sum(c < o for c, o in zip(passes["command"], passes["ordinary"])),
            "tail_after_main_ms": {form: stats([t for k in range(len(cs)) for t in tail[name, k, form]]) for form in FORMS},
            "peak_rss_mb_median": {form: statistics.median(v for k in range(len(cs)) for v in rss[name, k, form]) for form in FORMS},
            "per_call": [
                {
                    "argv": " ".join(call),
                    "wall_s": {form: stats(wall[name, k, form]) for form in FORMS},
                    "tail_after_main_ms": {form: stats(tail[name, k, form]) for form in FORMS},
                }
                for k, call in enumerate(cs)
            ],
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
