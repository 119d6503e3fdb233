"""The parent/change recorder's logic (``benchmarks/ab.py``) on synthetic
results: no build and no timed process."""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import ab  # noqa: E402


class TestSameSummary:
    def test_layout_only_change_matches(self):
        assert ab.same_summary(["verify"], (0, b"PASS  a: 1\nPASS  b: 2\n"), (0, b"PASS a\n\nPASS b\n"))

    def test_stderr_difference_matches(self):
        # a moved stderr is a mismatch of the call, not of its gate summary
        assert ab.same_summary(["--version"], (0, b"cayleyphase 1\n", b""), (0, b"cayleyphase 1\n", b"note\n"))

    def test_gate_difference_does_not_match(self):
        assert not ab.same_summary(["verify"], (0, b"PASS  a: 1\n"), (0, b"FAIL  a: 1\n"))

    def test_exit_codes_must_agree(self):
        assert not ab.same_summary(["--version"], (0, b"cayleyphase 1\n"), (1, b"cayleyphase 1\n"))

    def test_malformed_output_does_not_match(self):
        argv = ["partition", "--j1", "1", "--j2", "0", "--temperature", "1", "--format", "json"]
        assert not ab.same_summary(argv, (0, b'{"depth": 3}\n'), (0, b"not json\n"))


def test_spawn_result_holds_exit_code_stdout_and_stderr(tmp_path):
    argv = [sys.executable, "-c", "import sys; sys.stdout.write('out'); sys.stderr.write('err'); sys.exit(3)"]
    assert ab.spawn(argv, dict(os.environ), tmp_path)["result"] == (3, b"out", b"err")


def test_wins_ignores_ties():
    assert ab.wins([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 3.0, 3.5]) == {"parent": 1, "change": 2}


def test_stats():
    assert ab.stats([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "iqr": 3.0, "n": 5}


def test_ratios_are_paired_by_round():
    # a round slow on both sides leaves its ratio at 1
    got = ab.ratios([2.0, 20.0, 2.0, 2.0], [1.0, 20.0, 3.0, 4.0])
    assert got["per_round"] == [0.5, 1.0, 1.5, 2.0]
    assert got["median"] == 1.25
    assert (got["q1"], got["q3"]) == pytest.approx((0.625, 1.875))
