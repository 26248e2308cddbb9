"""``python -m repro trace <target>``: scaled-down experiments, tracing on.

Each target reruns a shrunken version of one of the paper's experiments
with the full observability stack enabled and writes, into ``--out``:

* ``<target>.trace.json`` — Chrome ``trace_event`` JSON of the primary
  (TCIO) run: one track per rank plus NIC/memory/OST hardware tracks.
  Load it in https://ui.perfetto.dev or ``chrome://tracing``.
* ``<target>.metrics.json`` — the run's :class:`MetricsRegistry` snapshot,
  plus a ``"tcio"`` section mirroring rank 0's legacy
  ``TcioStats.as_dict()`` under dotted names.
* for comparison targets, ``<target>.ocio.*`` twins from the OCIO run.

An ASCII per-phase timeline of the primary run is printed to stdout.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.export import ascii_timeline, write_chrome_trace, write_metrics_json
from repro.obs.spans import Tracer
from repro.sim.trace import TraceRecorder

TARGETS = ("fig5", "fig67", "fig910", "bench")


def _recorder() -> TraceRecorder:
    return TraceRecorder(tracer=Tracer(enabled=True))


def _bench_point(method: str, procs: int, length: int):
    """One synthetic-benchmark point under a fresh enabled recorder."""
    from repro.bench import BenchConfig, Method, run_benchmark

    recorder = _recorder()
    cfg = BenchConfig(
        method=Method.parse(method),
        num_arrays=2,
        type_codes="i,d",
        len_array=length,
        size_access=1,
        nprocs=procs,
    )
    result = run_benchmark(cfg, trace=recorder)
    if result.failed:
        raise RuntimeError(f"{method} benchmark failed: {result.fail_reason}")
    return recorder, result


def _write_pair(
    out: str, stem: str, recorder: TraceRecorder, *, tcio: Optional[dict] = None
) -> tuple[str, str]:
    """Write one run's trace + metrics files; *tcio* is rank 0's
    ``TcioStats.as_dict()``, stored under the dotted metric names."""
    from repro.tcio.stats import FIELD_METRICS

    trace_path = os.path.join(out, f"{stem}.trace.json")
    metrics_path = os.path.join(out, f"{stem}.metrics.json")
    write_chrome_trace(recorder.tracer, trace_path)
    dotted = {FIELD_METRICS[fld]: v for fld, v in tcio.items()} if tcio else None
    write_metrics_json(recorder.registry, metrics_path, tcio=dotted)
    return trace_path, metrics_path


def run_traced(
    target: str, *, procs: Optional[int] = None, out: str = "trace_out",
    tiny: bool = False,
) -> dict:
    """Run *target* scaled down with tracing; returns the written paths."""
    if target not in TARGETS:
        raise ValueError(f"unknown trace target {target!r} (want one of {TARGETS})")
    os.makedirs(out, exist_ok=True)
    paths: dict[str, str] = {}

    if target == "fig5":
        # Throughput-vs-processes mechanism: TCIO vs OCIO at one P.
        p = procs or (4 if tiny else 64)
        length = 64 if tiny else 256
        recorder, result = _bench_point("tcio", p, length)
        paths["trace"], paths["metrics"] = _write_pair(
            out, target, recorder, tcio=result.tcio_stats
        )
        ocio_rec, _ = _bench_point("ocio", p, length)
        paths["ocio_trace"], paths["ocio_metrics"] = _write_pair(
            out, f"{target}.ocio", ocio_rec
        )
    elif target == "fig67":
        # Throughput-vs-file-size mechanism: a larger per-process block.
        p = procs or (4 if tiny else 16)
        length = 128 if tiny else 1024
        recorder, result = _bench_point("tcio", p, length)
        paths["trace"], paths["metrics"] = _write_pair(
            out, target, recorder, tcio=result.tcio_stats
        )
        ocio_rec, _ = _bench_point("ocio", p, length)
        paths["ocio_trace"], paths["ocio_metrics"] = _write_pair(
            out, f"{target}.ocio", ocio_rec
        )
    elif target == "fig910":
        # The ART dump/restart application driver through TCIO.
        from repro.art.app import ArtConfig, run_art
        from repro.art.decomposition import ArtWorkload

        p = procs or (2 if tiny else 4)
        workload = ArtWorkload(
            n_segments=(4 if tiny else 8) * p,
            mu=256.0 if tiny else 512.0,
            sigma=16.0,
        )
        recorder = _recorder()
        result = run_art(
            ArtConfig(workload=workload, nprocs=p), trace=recorder
        )
        paths["trace"], paths["metrics"] = _write_pair(
            out, target, recorder, tcio=result.restart_stats
        )
    else:  # bench
        p = procs or (4 if tiny else 8)
        length = 64 if tiny else 128
        recorder, result = _bench_point("tcio", p, length)
        paths["trace"], paths["metrics"] = _write_pair(
            out, target, recorder, tcio=result.tcio_stats
        )

    print(ascii_timeline(recorder.tracer))
    for kind, path in sorted(paths.items()):
        print(f"{kind}: {path}")
    return paths
