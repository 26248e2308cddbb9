"""``python -m repro perf bench``: the host-performance regression gate.

Runs a pinned set of SMOKE-scale points — small enough for CI, large
enough to exercise every hot path (TCIO/OCIO/MPI-IO synthetic writes and
reads, the ART record format, node aggregation) — and records, per
point, host **wall-clock seconds**, **engine events/sec** and **peak
RSS**. The report lands in ``BENCH_<n>.json``; comparing a fresh report
against the committed baseline with a relative tolerance is the CI job
that keeps the perf trajectory measurable (and monotone).

Each point runs in a fresh spawned child process so peak RSS is
attributable per point (``ru_maxrss`` is a process-lifetime high-water
mark) and no warm caches leak between points. A pure-Python calibration
loop measured alongside normalizes wall-clock across hosts of different
speeds: comparisons scale the baseline by the calibration ratio before
applying the tolerance.
"""

from __future__ import annotations

import json
import multiprocessing
import platform
import sys
import time
from typing import Optional

from repro.perf.points import Point, run_point

REPORT_SCHEMA = 1

#: Default relative tolerance of the regression gate (25%).
DEFAULT_TOLERANCE = 0.25

#: The pinned measurement set: name -> point. SMOKE-sized on purpose —
#: the gate must be cheap enough to run on every PR. Names are stable
#: identifiers; changing a point's parameters requires a new name (and a
#: baseline refresh), otherwise cross-version comparisons are lies.
PINNED: dict[str, Point] = {
    "bench-tcio-p16-len2048": Point.make(
        "fig5", method="TCIO", nprocs=16, len_array=2048
    ),
    "bench-ocio-p16-len2048": Point.make(
        "fig5", method="OCIO", nprocs=16, len_array=2048
    ),
    "bench-mpiio-p8-len256": Point.make(
        "fig67", method="MPI-IO", nprocs=8, len_array=256
    ),
    "art-tcio-p8-seg24": Point.make(
        "fig910", method="TCIO", nprocs=8, segments=24, cell_scale=128
    ),
    "topo-tcio-node-p32": Point.make(
        "topo", method="TCIO", aggregation="node", nprocs=32,
        cores_per_node=4, len_array=512,
    ),
    # Journaling overhead: the same point as bench-tcio-p16-len2048 with
    # the epoched durability protocol on — the pair bounds what the
    # write-ahead journal costs on the host (docs/faults.md).
    "bench-tcio-journal-epoch-p16-len2048": Point.make(
        "fig5", method="TCIO", nprocs=16, len_array=2048, journal="epoch"
    ),
    # Delegate-server mode: a 64-client trace through node-leader servers
    # — RPC fan-in, admission control, and epoch write-behind on the hot
    # path (docs/io-server.md).
    "ioserver-c64-p6": Point.make(
        "ioserver", nclients=64, nranks=6, cores_per_node=3, epochs=3, seed=11
    ),
    # Multi-job tenancy: the 2-job interference matrix (solo baselines +
    # shared run + byte-identity + fsck) under fair-share QoS — the
    # shared-substrate routing hot path (docs/tenancy.md).
    "tenancy-2job-p4": Point.make(
        "tenancy", qos="fair", nranks=4, len_array=512, seed=3
    ),
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload (host-speed yardstick)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i % 7
    items = [str(i) for i in range(50_000)]
    acc += len("".join(items))
    assert acc > 0
    return time.perf_counter() - t0


def _peak_rss_kib() -> int:
    """This process's peak resident set in KiB (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


def measure_point(name: str) -> dict:
    """Run one pinned point in *this* process and measure it.

    Meant to execute inside a fresh child (see :func:`run_hostbench`);
    calling it directly is fine for tests, but peak RSS then reflects
    the whole parent process.
    """
    from repro.sim.engine import events_executed_total

    point = PINNED[name]
    before_events = events_executed_total()
    t0 = time.perf_counter()
    result = run_point(point)
    wall = time.perf_counter() - t0
    events = events_executed_total() - before_events
    sim_seconds = sum(
        float(result.get(key) or 0.0)
        for key in ("write_seconds", "read_seconds", "dump_seconds",
                    "restart_seconds", "scenario_elapsed", "elapsed")
    )
    return {
        "point": point.label(),
        "wall_seconds": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall) if wall > 0 else 0,
        "peak_rss_kib": _peak_rss_kib(),
        "sim_seconds": round(sim_seconds, 9),
    }


def _bench_worker(name: str) -> dict:
    """Child-process entry: measure one pinned point."""
    return measure_point(name)


def run_hostbench(
    *,
    names: Optional[list[str]] = None,
    repeat: int = 1,
    fresh_process: bool = True,
    verbose: bool = True,
) -> dict:
    """Measure the pinned set; returns the ``BENCH_*.json`` report dict.

    ``repeat`` takes the fastest of N runs per point (noise floor);
    ``fresh_process=False`` measures in-process (fast for tests, peak
    RSS then covers the whole parent).
    """
    selected = names if names is not None else list(PINNED)
    unknown = [n for n in selected if n not in PINNED]
    if unknown:
        raise ValueError(f"unknown bench points: {unknown}")
    report: dict = {
        "schema": REPORT_SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_seconds": round(calibrate(), 4),
        "points": {},
    }
    ctx = multiprocessing.get_context("spawn") if fresh_process else None
    for name in selected:
        best: Optional[dict] = None
        for _ in range(max(1, repeat)):
            if ctx is not None:
                with ctx.Pool(processes=1, maxtasksperchild=1) as pool:
                    measured = pool.apply(_bench_worker, (name,))
            else:
                measured = measure_point(name)
            if best is None or measured["wall_seconds"] < best["wall_seconds"]:
                best = measured
        report["points"][name] = best
        if verbose:  # pragma: no cover - console convenience
            print(
                f"[perf bench] {name}: {best['wall_seconds']:.2f} s, "
                f"{best['events_per_sec']} events/s, "
                f"{best['peak_rss_kib'] / 1024:.0f} MiB peak RSS",
                flush=True,
            )
    return report


# ----------------------------------------------------------------------
# the regression comparison
# ----------------------------------------------------------------------


def compare_reports(
    baseline: dict, current: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Regressions of *current* vs *baseline*; empty list means pass.

    Wall-clock comparisons are calibration-normalized: the baseline's
    seconds scale by (current calibration / baseline calibration) so a
    slower CI machine does not read as a code regression. A point is a
    regression when its normalized wall-clock grows by more than
    *tolerance* (relative). Missing or renamed points are reported too —
    silently dropping a slow point from the pinned set must not pass.
    """
    problems: list[str] = []
    base_cal = float(baseline.get("calibration_seconds") or 0.0)
    cur_cal = float(current.get("calibration_seconds") or 0.0)
    scale = (cur_cal / base_cal) if base_cal > 0 and cur_cal > 0 else 1.0
    base_points = baseline.get("points", {})
    cur_points = current.get("points", {})
    for name, base in base_points.items():
        cur = cur_points.get(name)
        if cur is None:
            problems.append(f"{name}: missing from current report")
            continue
        allowed = float(base["wall_seconds"]) * scale * (1.0 + tolerance)
        got = float(cur["wall_seconds"])
        if got > allowed:
            problems.append(
                f"{name}: wall-clock {got:.2f} s exceeds "
                f"{allowed:.2f} s (baseline {base['wall_seconds']:.2f} s "
                f"x {scale:.2f} calibration x {1 + tolerance:.2f} tolerance)"
            )
    return problems


def write_report(report: dict, path: str) -> None:
    """Write a ``BENCH_*.json`` report (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict:
    """Read a ``BENCH_*.json`` report."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
