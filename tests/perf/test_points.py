"""Point grids and point execution (the campaign's unit of work)."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.common import SMOKE
from repro.perf.points import (
    EXPERIMENTS,
    Point,
    points_for,
    run_point,
    run_spec,
)


class TestPoint:
    def test_params_are_canonically_sorted(self):
        a = Point.make("fig5", nprocs=8, method="TCIO", len_array=64)
        b = Point.make("fig5", len_array=64, method="TCIO", nprocs=8)
        assert a == b
        assert hash(a) == hash(b)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            Point.make("fig11", nprocs=8)

    def test_get_and_label(self):
        p = Point.make("fig5", method="TCIO", nprocs=8, len_array=64)
        assert p.get("nprocs") == 8
        assert p.get("absent", 42) == 42
        assert p.label() == "fig5(len_array=64, method=TCIO, nprocs=8)"

    def test_spec_round_trip(self):
        p = Point.make("fig67", method="OCIO", nprocs=8, len_array=64)
        assert Point.from_spec(p.as_spec()) == p

    def test_picklable(self):
        p = Point.make("fig910", method="TCIO", nprocs=4, segments=8, cell_scale=256)
        assert pickle.loads(pickle.dumps(p)) == p


class TestGrids:
    def test_every_experiment_has_a_grid(self):
        for experiment in EXPERIMENTS:
            points = points_for(experiment, SMOKE)
            assert points
            assert all(p.experiment == experiment for p in points)

    def test_fig5_grid_spans_methods_and_procs(self):
        points = points_for("fig5", SMOKE)
        assert {p.get("method") for p in points} == {"TCIO", "OCIO"}
        assert {p.get("nprocs") for p in points} == set(SMOKE.proc_counts)

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            points_for("fig11")


class TestRunPoint:
    def test_bench_point_result_shape(self):
        point = Point.make("fig5", method="TCIO", nprocs=4, len_array=64)
        result = run_point(point)
        assert not result["failed"]
        assert result["write_throughput"] > 0
        assert result["read_throughput"] > 0
        assert len(result["file_sha256"]) == 64

    def test_run_spec_matches_run_point(self):
        point = Point.make("fig5", method="OCIO", nprocs=4, len_array=64)
        assert run_spec(point.as_spec()) == run_point(point)

    def test_art_point_has_no_output_hash(self):
        point = Point.make(
            "fig910", method="TCIO", nprocs=4, segments=8, cell_scale=256
        )
        result = run_point(point)
        assert result["dump_throughput"] > 0
        assert "file_sha256" not in result
