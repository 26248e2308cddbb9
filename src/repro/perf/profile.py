"""``python -m repro perf profile <target>``: whole-simulator cProfile.

Rank programs are generator coroutines resumed inline by the engine
loop, so the whole simulation — scheduler and every rank program — runs
on the calling thread. One ``cProfile.Profile`` around the run therefore
sees everything; there is no per-thread collection step.

This is the tool the hot-path optimization pass is guided by — see
docs/performance.md for a worked example.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Optional, Sequence

from repro.perf.points import Point, points_for, run_point

TARGETS = ("bench", "fig5", "fig67", "fig910", "topo")


def profile_points(
    points: Sequence[Point],
) -> tuple[pstats.Stats, float]:
    """Run *points* serially under one profiler.

    Returns the :class:`pstats.Stats` plus total host seconds. The
    generator kernel runs rank programs inline on this thread, so a
    single profile covers the scheduler and every rank program.
    """
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    try:
        for point in points:
            run_point(point)
    finally:
        profile.disable()
    wall = time.perf_counter() - t0
    return pstats.Stats(profile), wall


def target_points(
    target: str,
    *,
    method: str = "tcio",
    procs: Optional[int] = None,
    len_array: Optional[int] = None,
) -> list[Point]:
    """The point list one profile target runs (SMOKE-sized grids)."""
    from repro.experiments.common import SMOKE

    if target == "bench":
        return [Point.make(
            "fig5",
            method={"tcio": "TCIO", "ocio": "OCIO"}.get(method, method.upper()),
            nprocs=procs or 16,
            len_array=len_array or 2048,
        )]
    if target in ("fig5", "fig67", "fig910", "topo"):
        return points_for(target, SMOKE)
    raise ValueError(f"unknown profile target {target!r} (want one of {TARGETS})")


def run_profile(
    target: str,
    *,
    method: str = "tcio",
    procs: Optional[int] = None,
    len_array: Optional[int] = None,
    sort: str = "tottime",
    limit: int = 25,
    out: Optional[str] = None,
) -> pstats.Stats:
    """Profile one target and print the top-*limit* functions by *sort*.

    ``out`` additionally dumps the merged stats to a ``.pstats`` file
    loadable with ``pstats.Stats(path)`` or snakeviz-style viewers.
    """
    points = target_points(
        target, method=method, procs=procs, len_array=len_array
    )
    print(f"profiling {len(points)} point(s): "
          + ", ".join(p.label() for p in points))
    stats, wall = profile_points(points)
    print(f"host wall-clock: {wall:.2f} s\n")
    stats.sort_stats(sort).print_stats(limit)
    if out is not None:
        stats.dump_stats(out)
        print(f"wrote {out}")
    return stats
