"""Workload definitions: the CLI calls each workload makes, and how each
call's output is reduced to a summary that the correctness gate compares
against the recorded reference.

A workload seed selects one of ``POOL`` input sets; the program only ever sees
the generated ``--seeds`` lists.  The pool is finite so that every input set
has a recorded reference (``reference.json``, written by
``record_reference.py``).  The reference is keyed by the call's argument
list, so a call that several seeds or sizes share is recorded once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

POOL = 16
WORKLOADS = ("scan-modulated", "scan-ordered", "point-analysis")
SIZES = ("full", "tiny")

# the documented scan columns; the digest covers only these, so a column
# added later does not invalidate the recorded digests
SCAN_COLUMNS = (
    "grid_i", "grid_j", "j1", "j2", "temperature", "a", "b", "phase",
    "cycle_period", "para_count", "comm2_count", "m1_residual", "m2_residual",
    "iterations", "seed",
)

# the five diagnose points of point-analysis, one per trajectory phase:
# ferromagnetic, multi-root (seeds may disagree), paramagnetic,
# 2-commensurate and 4-commensurate
DIAGNOSE_POINTS = (
    (1.0, 0.15, 0.6),
    (0.25, 0.9, 1.0),
    (0.1, 0.05, 3.0),
    (0.0, -math.log(2.0), 1.0),
    (1.0, -0.6, 0.3),
)
PARTITION_POINT = (0.5, -0.3, 1.0)

_SCAN_GRIDS = {
    # crosses the frustrated region: all four phases, most kernel steps in
    # budget-exhausting aperiodic runs
    ("scan-modulated", "full"): (("j2_over_j1:-0.8:0.4:10", "temperature:0.25:2:10"), 2000, 1, "csv"),
    ("scan-modulated", "tiny"): (("j2_over_j1:-0.8:0.4:3", "temperature:0.25:2:3"), 500, 1, "csv"),
    # unfrustrated quadrant: many short fixed-direction runs, pooled
    ("scan-ordered", "full"): (("j2_over_j1:0:0.8:40", "temperature:0.25:4:10"), 20000, 2, "json"),
    ("scan-ordered", "tiny"): (("j2_over_j1:0:0.8:4", "temperature:0.25:4:3"), 20000, 2, "json"),
}


def pool_index(seed: int) -> int:
    return seed % POOL


def program_seeds(seed: int, count: int) -> list[int]:
    """The ``count`` program seeds that workload seed ``seed`` selects."""
    k = pool_index(seed)
    return [count * k + i for i in range(count)]


def _point_args(point) -> list[str]:
    j1, j2, t = point
    return ["--j1", repr(j1), "--j2", repr(j2), "--temperature", repr(t)]


def scan_argv(workload: str, size: str, seed: int, workers: int | None = None) -> list[str]:
    axes, max_iter, default_workers, fmt = _SCAN_GRIDS[(workload, size)]
    argv = ["scan"]
    for axis in axes:
        argv += ["--axis", axis]
    seeds = ",".join(str(s) for s in program_seeds(seed, 2))
    argv += ["--j1", "1", "--seeds", seeds, "--max-iter", str(max_iter)]
    argv += ["--workers", str(default_workers if workers is None else workers), "--format", fmt]
    return argv


def calls(workload: str, size: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass over the workload, in order."""
    if workload in ("scan-modulated", "scan-ordered"):
        return [scan_argv(workload, size, seed)]
    if workload != "point-analysis":
        raise ValueError(f"unknown workload {workload!r}")
    seeds = ",".join(str(s) for s in program_seeds(seed, 3))
    tiny = size == "tiny"
    points = DIAGNOSE_POINTS[:2] if tiny else DIAGNOSE_POINTS
    out = [["diagnose", *_point_args(pt), "--seeds", seeds, "--format", "json"] for pt in points]
    out.append(["verify"])
    part = ["partition", *_point_args(PARTITION_POINT), "--format", "json"]
    out.append(part + ["--depth", "50" if tiny else "1000", "--log"])
    if not tiny:
        out.append(part + ["--depth", "3"])
    out.append(["curves", "--axis", "j2:-2:-0.1:5" if tiny else "j2:-2:-0.1:80", "--temperature", "0.8"])
    out.append(["--version"])
    return out


def checked_calls(workload: str, size: str, seed: int) -> list[list[str]]:
    """Every call the benchmark gates for a workload: its passes, plus the
    ``--workers 1`` scan that ``scan-ordered`` is compared with."""
    out = calls(workload, size, seed)
    if workload == "scan-ordered":
        out.append(scan_argv(workload, size, seed, workers=1))
    return out


def _kind(phase: str) -> str:
    if phase == "commensurate":
        return "cycle"
    if phase == "incommensurate":
        return "aperiodic"
    return "fixed"


def _steps(pairs) -> dict[str, int]:
    steps = {"fixed": 0, "cycle": 0, "aperiodic": 0}
    for kind, n in pairs:
        steps[kind] += n
    return steps


def _scan_rows(argv: list[str], text: str) -> list[list]:
    if argv[argv.index("--format") + 1] == "json":
        results = json.loads(text)["results"]
        return [[row[c] for c in SCAN_COLUMNS] for row in results]
    table = list(csv.DictReader(io.StringIO(text)))
    return [[row[c] for c in SCAN_COLUMNS] for row in table]


def summarize(argv: list[str], text: str) -> dict:
    """Reduce one call's standard output to what the gate compares.

    Raises ``ValueError`` (or ``KeyError``/``json.JSONDecodeError``) when the
    output is malformed; the caller counts that as a failed call.
    """
    command = argv[0]
    if command == "scan":
        rows = _scan_rows(argv, text)
        canon = json.dumps(rows, separators=(",", ":")).encode()
        i_phase, i_iter = SCAN_COLUMNS.index("phase"), SCAN_COLUMNS.index("iterations")
        return {
            "rows": len(rows),
            "rows_sha256": hashlib.sha256(canon).hexdigest(),
            "steps": _steps((_kind(r[i_phase]), int(r[i_iter])) for r in rows),
        }
    if command == "diagnose":
        report = json.loads(text)
        runs = report["trajectories"]
        return {
            "phases": [r["phase"] for r in runs],
            "ferro_fixed_points": len(report["ferro_fixed_points"]),
            "steps": _steps((_kind(r["phase"]), r["iterations"]) for r in runs),
        }
    if command == "verify":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        return {"all_pass": bool(lines) and all(ln.startswith("PASS") for ln in lines)}
    if command == "partition":
        result = json.loads(text)
        return {k: result[k] for k in sorted(result)}
    if command == "curves":
        table = list(csv.reader(io.StringIO(text)))
        if table[0] != ["j2", "j1_plus", "j1_minus"]:
            raise ValueError("unexpected curves header")
        return {"rows": [[float(x) if x else None for x in row] for row in table[1:]]}
    if command == "--version":
        return {"program": text.split()[0]}
    raise ValueError(f"no summary for {command!r}")


def records(summary: dict) -> int:
    """Output records a call produced: scan rows, diagnose trajectories,
    curve rows, or one for any other call."""
    if "rows_sha256" in summary:
        return summary["rows"]
    if "phases" in summary:
        return len(summary["phases"])
    if "rows" in summary:
        return len(summary["rows"])
    return 1


def matches(expected, actual, rel: float = 1e-9) -> bool:
    """Structural equality; floats agree to a relative ``rel``."""
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return abs(expected - actual) <= rel * max(abs(expected), abs(actual))
    if isinstance(expected, dict) and isinstance(actual, dict):
        return expected.keys() == actual.keys() and all(
            matches(expected[k], actual[k], rel) for k in expected
        )
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(
            matches(e, a, rel) for e, a in zip(expected, actual)
        )
    return type(expected) is type(actual) and expected == actual


def reference_key(argv: list[str]) -> str:
    return " ".join(argv)
