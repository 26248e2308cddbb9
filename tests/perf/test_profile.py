"""The single-thread profiler: rank coroutine work must be visible."""

from __future__ import annotations

import pstats

import pytest

from repro.perf.points import Point
from repro.perf.profile import profile_points, target_points

TINY = [Point.make("fig5", method="TCIO", nprocs=4, len_array=64)]


class TestProfilePoints:
    def test_rank_side_functions_appear_in_stats(self):
        stats, wall = profile_points(TINY)
        assert wall > 0
        files = {func[0] for func in stats.stats}
        # rank programs are generators resumed by the engine on this very
        # thread, so one cProfile sees both the kernel and the rank work
        assert any(f.endswith("tcio/file.py") for f in files)
        assert any(f.endswith("sim/engine.py") for f in files)

    def test_failure_propagates_and_profiler_recovers(self):
        bad = Point.make("fig5", method="NOPE", nprocs=4, len_array=64)
        with pytest.raises(Exception):
            profile_points([bad])
        # the profiler was disabled on the way out: a fresh run still works
        stats, _ = profile_points(TINY)
        assert isinstance(stats, pstats.Stats)

    def test_stats_are_pstats(self):
        stats, _ = profile_points(TINY)
        assert isinstance(stats, pstats.Stats)


class TestTargetPoints:
    def test_bench_target_is_one_point(self):
        [point] = target_points("bench", method="tcio", procs=4, len_array=64)
        assert point.get("method") == "TCIO"
        assert point.get("nprocs") == 4

    def test_figure_targets_use_smoke_grids(self):
        from repro.experiments.common import SMOKE
        from repro.perf.points import points_for

        assert target_points("fig5") == points_for("fig5", SMOKE)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            target_points("fig11")
