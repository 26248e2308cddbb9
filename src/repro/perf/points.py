"""Experiment points: the independent unit of campaign work.

Every figure of the paper's evaluation decomposes into a grid of
*points* — one (method, parameters) simulation each — that share nothing
at run time: the simulated jobs build their own engine, file system and
fabric, and determinism comes from the virtual clock, not from execution
order. That makes a point the natural unit to fan across a process pool
and to cache on disk.

A :class:`Point` is a frozen, picklable value object; :func:`run_point`
executes one and returns a plain JSON-able dict (what the result store
keeps and what the figure assemblers consume). The per-experiment grids
live here too (:func:`points_for`), so the serial harnesses, the pool
runner and the tests all enumerate exactly the same work.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

EXPERIMENTS = ("fig5", "fig67", "fig910", "topo", "ioserver")

#: Bump to invalidate every stored result (result-shape changes).
RESULT_SCHEMA = 1


def config_hash() -> str:
    """Hash of the simulation configuration that determines results.

    Covers the calibrated Lonestar preset (all per-event cost constants,
    via the dataclass's repr), both global scale factors, and the result
    schema version. It is part of every stored result's key, so a
    calibration change yields a different hash and stale results are
    never served.
    """
    from repro.cluster.lonestar import (
        LONESTAR_SCALE,
        LONESTAR_STRIPE_SCALE,
        make_lonestar,
    )

    spec = make_lonestar()
    parts = [
        f"schema={RESULT_SCHEMA}",
        f"scale={LONESTAR_SCALE}",
        f"stripe_scale={LONESTAR_STRIPE_SCALE}",
        repr(dataclasses.asdict(spec)),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Point:
    """One independent simulation of a campaign.

    ``params`` is a sorted tuple of (name, scalar) pairs so points hash,
    compare, pickle and JSON-serialize deterministically.
    """

    experiment: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def make(cls, experiment: str, **params: object) -> "Point":
        """Build a point with canonical (sorted) parameter order."""
        if experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {experiment!r}")
        return cls(experiment, tuple(sorted(params.items())))

    def get(self, name: str, default: object = None) -> object:
        """One parameter's value (or *default*)."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def label(self) -> str:
        """A compact human-readable id (progress lines, bench reports)."""
        parts = [f"{k}={v}" for k, v in self.params]
        return f"{self.experiment}({', '.join(parts)})"

    def as_spec(self) -> dict:
        """A JSON-able spec (what pool workers receive)."""
        return {"experiment": self.experiment, "params": dict(self.params)}

    @classmethod
    def from_spec(cls, spec: dict) -> "Point":
        """Rebuild a point from :meth:`as_spec` output."""
        return cls.make(spec["experiment"], **spec["params"])


# ----------------------------------------------------------------------
# grids (one entry per figure point, enumeration order = figure order)
# ----------------------------------------------------------------------


def points_for(experiment: str, scale=None) -> list[Point]:
    """The grid of points one experiment runs at *scale* (default FULL)."""
    from repro.experiments.common import FULL

    scale = scale if scale is not None else FULL
    points: list[Point] = []
    if experiment == "fig5":
        for nprocs in scale.proc_counts:
            for method in ("TCIO", "OCIO"):
                points.append(Point.make(
                    "fig5", method=method, nprocs=nprocs,
                    len_array=scale.len_array,
                ))
    elif experiment == "fig67":
        for len_array in scale.filesize_lens:
            for method in ("TCIO", "OCIO"):
                points.append(Point.make(
                    "fig67", method=method, nprocs=scale.filesize_procs,
                    len_array=len_array,
                ))
    elif experiment == "fig910":
        for nprocs in scale.art_proc_counts:
            for method in ("TCIO", "MPI-IO"):
                points.append(Point.make(
                    "fig910", method=method, nprocs=nprocs,
                    segments=scale.art_segments,
                    cell_scale=scale.art_cell_scale,
                ))
    elif experiment == "topo":
        for method in ("TCIO", "OCIO"):
            for aggregation in ("flat", "node"):
                points.append(Point.make(
                    "topo", method=method, aggregation=aggregation,
                    nprocs=64, cores_per_node=4, len_array=1024,
                ))
    elif experiment == "ioserver":
        for nclients in (16, 64):
            points.append(Point.make(
                "ioserver", nclients=nclients, nranks=6, cores_per_node=3,
                epochs=3, seed=11,
            ))
    else:
        raise ValueError(f"unknown experiment {experiment!r}")
    return points


# ----------------------------------------------------------------------
# execution (pure: point in, JSON-able result out)
# ----------------------------------------------------------------------


def _run_bench_point(point: Point) -> dict:
    """A fig5/fig67 point: one synthetic-benchmark (method, P, LEN) run."""
    from repro.bench import BenchConfig, Method, run_benchmark

    method = str(point.get("method"))
    nprocs = int(point.get("nprocs"))  # type: ignore[arg-type]
    len_array = int(point.get("len_array"))  # type: ignore[arg-type]
    journal = str(point.get("journal") or "off")
    segment_bytes = point.get("segment_bytes")
    cb_nodes = point.get("cb_nodes")
    cfg = BenchConfig(
        method=Method.parse(method),
        num_arrays=2,
        type_codes="i,d",
        len_array=len_array,
        size_access=1,
        nprocs=nprocs,
        file_name=f"{point.experiment}_{method}_{nprocs}_{len_array}.dat",
        journal=journal,
        aggregation=str(point.get("aggregation") or "flat"),
        segment_bytes=None if segment_bytes is None else int(segment_bytes),  # type: ignore[arg-type]
        cb_nodes=None if cb_nodes is None else int(cb_nodes),  # type: ignore[arg-type]
    )
    result = run_benchmark(cfg)
    return {
        "write_throughput": result.write_throughput,
        "read_throughput": result.read_throughput,
        "write_seconds": result.write_seconds,
        "read_seconds": result.read_seconds,
        "failed": result.failed,
        "fail_reason": result.fail_reason,
        "file_sha256": result.file_sha256,
    }


def _run_art_point(point: Point) -> dict:
    """A fig910 point: one ART dump+restart (method, P) run."""
    from repro.art import ArtConfig, ArtIoMethod, ArtWorkload, run_art
    from repro.cluster.lonestar import make_lonestar

    label = str(point.get("method"))
    method = ArtIoMethod.TCIO if label == "TCIO" else ArtIoMethod.MPIIO
    nprocs = int(point.get("nprocs"))  # type: ignore[arg-type]
    workload = ArtWorkload(
        n_segments=int(point.get("segments")),  # type: ignore[arg-type]
        cell_scale=int(point.get("cell_scale")),  # type: ignore[arg-type]
    )
    cfg = ArtConfig(
        workload=workload,
        method=method,
        nprocs=nprocs,
        file_name=f"fig910_{label}_{nprocs}.dat",
        per_array_cost=0.5e-6,
    )
    result = run_art(cfg, cluster=make_lonestar(nranks=nprocs))
    return {
        "dump_throughput": result.dump_throughput,
        "restart_throughput": result.restart_throughput,
        "dump_seconds": result.dump_seconds,
        "restart_seconds": result.restart_seconds,
        "snapshot_bytes": result.snapshot_bytes,
    }


def _run_topo_point(point: Point) -> dict:
    """A topo-ablation point: one (method, aggregation) write phase."""
    from repro.bench import Method, run_benchmark
    from repro.experiments.topo_ablation import ablation_cluster, ablation_config

    procs = int(point.get("nprocs"))  # type: ignore[arg-type]
    cores_per_node = int(point.get("cores_per_node"))  # type: ignore[arg-type]
    cluster = ablation_cluster(
        procs, cores_per_node, net=str(point.get("net") or "default")
    )
    cfg = ablation_config(
        Method.parse(str(point.get("method"))),
        str(point.get("aggregation")),
        procs,
        cores_per_node,
        cluster.lustre.stripe_size,
        int(point.get("len_array")),  # type: ignore[arg-type]
    )
    result = run_benchmark(cfg, cluster=cluster, do_read=False)
    if result.failed:  # pragma: no cover - surfaced by the ablation check
        raise RuntimeError(f"{point.label()}: {result.fail_reason}")
    return {
        "messages": int(result.counters.get("write.net.msg", (0, 0))[0]),
        "connections": int(result.counters.get("write.net.connection", (0, 0))[0]),
        "write_seconds": result.write_seconds,
        "file_sha256": result.file_sha256,
    }


def _run_ioserver_point(point: Point) -> dict:
    """An ioserver point: one seeded trace through the delegate servers."""
    import hashlib

    from repro.ioserver import expected_image, generate_trace, run_ioserver

    trace = generate_trace(
        int(point.get("seed")),  # type: ignore[arg-type]
        int(point.get("nclients")),  # type: ignore[arg-type]
        epochs=int(point.get("epochs")),  # type: ignore[arg-type]
    )
    nranks = int(point.get("nranks"))  # type: ignore[arg-type]
    config = None
    delegates = point.get("delegates")
    queue_depth = point.get("queue_depth")
    if delegates is not None or queue_depth is not None:
        from dataclasses import replace

        from repro.ioserver.ablation import _delegates_for
        from repro.ioserver.protocol import IoServerConfig

        config = IoServerConfig(
            delegates=_delegates_for(delegates, nranks)
            if delegates is not None
            else "leaders",
        )
        if queue_depth is not None:
            config = replace(config, queue_depth=int(queue_depth))  # type: ignore[arg-type]
    result = run_ioserver(
        trace,
        nranks=nranks,
        cores_per_node=int(point.get("cores_per_node")),  # type: ignore[arg-type]
        config=config,
    )
    if result.aborted is not None:  # pragma: no cover - clean run expected
        raise RuntimeError(f"{point.label()}: aborted: {result.aborted}")
    if result.image != expected_image(trace):
        raise RuntimeError(f"{point.label()}: image differs from analytic")
    return {
        "elapsed": result.elapsed,
        "throughput": result.throughput,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "queue_depth_max": result.max_depth,
        "file_sha256": hashlib.sha256(result.image).hexdigest(),
    }


_BENCH_PARAMS = frozenset({
    "method", "nprocs", "len_array", "journal", "aggregation",
    "segment_bytes", "cb_nodes",
})

#: experiment -> (runner, the parameter names that runner reads). A sweep
#: spec naming any other parameter is rejected (``campaign.spec``): the
#: runners only ``point.get`` the names they know, so a misspelt axis
#: would otherwise run identical cells.
_RUNNERS = {
    "fig5": (_run_bench_point, _BENCH_PARAMS),
    "fig67": (_run_bench_point, _BENCH_PARAMS),
    "fig910": (
        _run_art_point,
        frozenset({"method", "nprocs", "segments", "cell_scale"}),
    ),
    "topo": (
        _run_topo_point,
        frozenset({
            "method", "aggregation", "nprocs", "cores_per_node", "len_array",
            "net",
        }),
    ),
    "ioserver": (
        _run_ioserver_point,
        frozenset({
            "seed", "nclients", "epochs", "nranks", "cores_per_node",
            "delegates", "queue_depth",
        }),
    ),
}


def accepted_params(experiment: str) -> frozenset[str]:
    """The parameter names *experiment*'s runner reads."""
    return _RUNNERS[experiment][1]


def run_point(point: Point) -> dict:
    """Execute one point in this process; returns its JSON-able result."""
    return _RUNNERS[point.experiment][0](point)


def run_spec(spec: dict) -> dict:
    """Worker-side entry: :func:`run_point` on a :meth:`Point.as_spec`."""
    return run_point(Point.from_spec(spec))
