"""The host-speed yardstick ``benchmarks/e2e`` imports by this name."""

from __future__ import annotations

from repro.perf.hostbench import calibrate


class TestMeasurement:
    def test_calibration_is_positive(self):
        assert calibrate() > 0
