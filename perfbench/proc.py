"""Timed child processes with their peak resident memory."""

from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class Result:
    code: int  # exit code; minus the signal number if killed
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def run(argv: list[str], env: dict, cwd, scratch, timeout: float) -> Result:
    """Run ``argv`` to completion and time it from spawn to exit.

    Output goes to files under ``scratch`` (large outputs cannot block a
    pipe); the child is reaped with ``wait4`` so its peak RSS, which includes
    its own reaped children such as pool workers, is known.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=cwd)
        expired = threading.Event()

        def kill():
            expired.set()
            child.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        code=child.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        timed_out=expired.is_set(),
    )
