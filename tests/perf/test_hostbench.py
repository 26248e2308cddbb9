"""The BENCH_*.json regression gate: measurement and comparison logic."""

from __future__ import annotations

import pytest

from repro.perf import hostbench
from repro.perf.hostbench import (
    PINNED,
    calibrate,
    compare_reports,
    load_report,
    measure_point,
    run_hostbench,
    write_report,
)


def _report(points: dict, calibration: float = 1.0) -> dict:
    return {
        "schema": 1,
        "calibration_seconds": calibration,
        "points": points,
    }


class TestMeasurement:
    def test_measure_point_fields(self):
        # In-process measurement of the smallest pinned point.
        measured = measure_point("bench-mpiio-p8-len256")
        assert measured["wall_seconds"] > 0
        assert measured["events"] > 0
        assert measured["events_per_sec"] > 0
        assert measured["sim_seconds"] > 0
        assert measured["point"] == PINNED["bench-mpiio-p8-len256"].label()

    def test_no_pinned_point_reports_zero_sim_seconds(self):
        # every family's result must feed the simulated-time sum: the
        # ioserver family returns ``elapsed`` and read 0.0 for two baselines
        zero = [n for n in PINNED if not measure_point(n)["sim_seconds"] > 0]
        assert zero == []

    def test_run_hostbench_report_shape(self, tmp_path):
        report = run_hostbench(
            names=["bench-mpiio-p8-len256"],
            fresh_process=False,
            verbose=False,
        )
        assert report["schema"] == hostbench.REPORT_SCHEMA
        assert report["calibration_seconds"] > 0
        assert set(report["points"]) == {"bench-mpiio-p8-len256"}
        path = tmp_path / "BENCH_test.json"
        write_report(report, str(path))
        assert load_report(str(path)) == report

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            run_hostbench(names=["nope"], verbose=False)

    def test_calibration_is_positive(self):
        assert calibrate() > 0


class TestCompareReports:
    def test_within_tolerance_passes(self):
        base = _report({"a": {"wall_seconds": 1.0}})
        cur = _report({"a": {"wall_seconds": 1.2}})
        assert compare_reports(base, cur, tolerance=0.25) == []

    def test_regression_flagged(self):
        base = _report({"a": {"wall_seconds": 1.0}})
        cur = _report({"a": {"wall_seconds": 1.3}})
        problems = compare_reports(base, cur, tolerance=0.25)
        assert len(problems) == 1
        assert "a" in problems[0]

    def test_calibration_normalizes_slow_hosts(self):
        # The current host is 2x slower (calibration 2.0 vs 1.0): a 1.9 s
        # wall-clock on it corresponds to ~0.95 s on the baseline host.
        base = _report({"a": {"wall_seconds": 1.0}}, calibration=1.0)
        cur = _report({"a": {"wall_seconds": 1.9}}, calibration=2.0)
        assert compare_reports(base, cur, tolerance=0.25) == []

    def test_missing_point_flagged(self):
        base = _report({"a": {"wall_seconds": 1.0}})
        cur = _report({})
        problems = compare_reports(base, cur)
        assert problems == ["a: missing from current report"]

    def test_extra_current_points_ignored(self):
        base = _report({"a": {"wall_seconds": 1.0}})
        cur = _report({"a": {"wall_seconds": 1.0}, "b": {"wall_seconds": 9.0}})
        assert compare_reports(base, cur) == []
