"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs in both modes and emits every metric that
BENCHMARK.json declares, with its unit; that the correctness gate flags a
wrong recorded digest, also on ``scan-ordered``, which compares its
``--workers 1`` and ``--workers 2`` rows; and that the benchmark refuses to
run without the package's source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "0", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", trace, "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", ["scan-modulated", "scan-ordered"])
def test_gate_flags_a_wrong_digest(workload, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    key = wl.reference_key(wl.calls(workload, "tiny", 0)[0])
    digest = reference[key]["rows_sha256"]
    reference[key]["rows_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference))
    done = bench("--workload", workload, "--trace", "0", "--size", "tiny", "--reference", str(wrong))
    result = result_of(done)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "differs from the reference" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "scan-modulated", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
