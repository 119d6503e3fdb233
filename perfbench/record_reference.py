#!/usr/bin/env python3
"""Record the reference outputs the benchmark's correctness gate compares to.

    python3 perfbench/record_reference.py

Runs every call of every workload, size and pool entry in-process through
``cayleyphase.cli.main`` on the current source tree and writes the output
summary of each distinct call to ``perfbench/reference.json``.  Re-record only when a change to
the program's output is intended, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.build()))
    from cayleyphase import cli

    reference = {}
    for workload in wl.WORKLOADS:
        for size in wl.SIZES:
            for k in range(wl.POOL):
                for argv in wl.checked_calls(workload, size, k):
                    key = wl.reference_key(argv)
                    if key in reference:
                        continue
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"cayleyphase {key} exited with {code}")
                    reference[key] = wl.summarize(argv, buf.getvalue())
                print(workload, size, k, file=sys.stderr, flush=True)
    write(reference, run.HERE / "reference.json")
    return 0


def write(reference: dict, path) -> None:
    """One call per line, sorted by its arguments."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(reference.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
