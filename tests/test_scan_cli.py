import json
import math
import subprocess
import sys

import pytest

from cayleyphase import AxisSpec, DomainError, ScanConfig, format_csv, format_json, run_scan
from cayleyphase.scan import CSV_COLUMNS


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
        with pytest.raises(DomainError):
            make_config(seeds=[])
        with pytest.raises(DomainError):
            ScanConfig(axes=[AxisSpec("temperature", 1, 2, 3)], j1=None, j2=0.5)
        with pytest.raises(DomainError):
            AxisSpec("temperature", 2.0, 1.0, 5)
        with pytest.raises(DomainError):
            AxisSpec("volume", 1.0, 2.0, 5)

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

    def test_workers_do_not_change_bytes(self):
        cfg1 = make_config(workers=1)
        cfg4 = make_config(workers=4)
        rows1, rows4 = run_scan(cfg1), run_scan(cfg4)
        assert format_csv(rows1) == format_csv(rows4)
        assert format_json(rows1, cfg1) == format_json(rows4, cfg4)

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
        assert len(payload["results"]) == 18
        assert set(payload["results"][0]) == set(CSV_COLUMNS)


class TestScanPhysics:
    def test_para_count_transition_at_tc(self):
        import math

        from cayleyphase import critical_temperature, multi_root_window

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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cayleyphase", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestCli:
    def test_diagnose_text(self):
        r = run_cli("diagnose", "--j1", "1", "--j2", "0.9", "--temperature", "1")
        assert r.returncode == 0
        assert "critical temperature" in r.stdout
        assert "below" in r.stdout  # T = 1 < 1.8/ln3

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

    def test_usage_error_exit_code(self):
        r = run_cli("scan", "--axis", "bogus")
        assert r.returncode == 1
        r2 = run_cli("diagnose", "--j1", "1")  # missing j2/temperature
        assert r2.returncode == 1

    def test_range_error_exit_code(self):
        point = ("--j1", "0.5", "--j2", "-0.3", "--temperature", "1")
        for args in (
            ("diagnose", "--j1", "1000", "--j2", "0", "--temperature", "0.1"),
            # 2^1024 - 1 sites do not fit a double
            ("partition", *point, "--log", "--depth", "1023"),
            # 1/(a^2 b^6) overflows
            ("diagnose", "--j1", "-300", "--j2", "-80", "--temperature", "1"),
            # the two-cycle quadratic overflows
            ("diagnose", "--j1", "200", "--j2", "-60", "--temperature", "1"),
            # trajectory components underflow to zero
            ("diagnose", "--j1", "-100", "--j2", "30", "--temperature", "1"),
            ("diagnose", "--j1", "-71.7", "--j2", "-84.2", "--temperature", "1"),
        ):
            r = run_cli(*args)
            assert r.returncode == 2, args
            assert "range" in r.stderr.lower()
