"""The ART application driver: build trees, dump a snapshot, restart.

"In the experiments, we let the simulation first dump the intermediate
data and then restart from this snapshot" (Section V.C). The driver times
the dump and restart phases separately (write/read throughput for
Figs. 9/10) and verifies restart-vs-original tree equality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.art.decomposition import ArtWorkload
from repro.art import io_mpiio, io_tcio
from repro.art.io_common import build_local_segments, index_nbytes
from repro.cluster.spec import ClusterSpec
from repro.simmpi import collectives
from repro.simmpi.mpi import MpiRunResult, RankEnv, run_mpi
from repro.sim.trace import TraceRecorder


class ArtIoMethod(enum.Enum):
    """Which I/O path the ART driver uses."""
    TCIO = "tcio"
    MPIIO = "mpiio"  # vanilla independent MPI-IO


@dataclass(frozen=True)
class ArtConfig:
    """One ART I/O experiment.

    ``per_array_cost`` charges the application's own marshalling work per
    record array (walking the FTT, computing offsets, staging the array) —
    serial per rank, so it divides across processes and produces the
    rising left side of the paper's strong-scaling throughput curves.
    """

    workload: ArtWorkload = field(default_factory=ArtWorkload)
    method: ArtIoMethod = ArtIoMethod.TCIO
    nprocs: int = 4
    file_name: str = "art_snapshot.dat"
    verify: bool = True
    per_array_cost: float = 0.0


@dataclass
class ArtResult:
    """Timings and mechanism counters of one dump+restart run."""

    config: ArtConfig
    dump_seconds: float = 0.0
    restart_seconds: float = 0.0
    snapshot_bytes: int = 0
    dump_stats: dict = field(default_factory=dict)
    restart_stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    snapshot_contents: bytes = b""  # the on-disk snapshot (for assertions)

    @property
    def dump_throughput(self) -> float:
        """Snapshot bytes per dump second."""
        return self.snapshot_bytes / self.dump_seconds if self.dump_seconds else 0.0

    @property
    def restart_throughput(self) -> float:
        """Snapshot bytes per restart second."""
        return (
            self.snapshot_bytes / self.restart_seconds if self.restart_seconds else 0.0
        )


def dump_snapshot(env: RankEnv, cfg: ArtConfig):
    """Run the dump phase on one rank; returns (seconds, stats, local bytes)."""
    local = build_local_segments(cfg.workload, env.rank, env.size)
    yield from collectives.barrier(env.comm)
    t0 = env.now
    if cfg.method is ArtIoMethod.TCIO:
        stats = yield from io_tcio.dump(
            env, cfg.workload, local, cfg.file_name, per_array_cost=cfg.per_array_cost
        )
    else:
        stats = yield from io_mpiio.dump(
            env, cfg.workload, local, cfg.file_name, per_array_cost=cfg.per_array_cost
        )
    yield from collectives.barrier(env.comm)
    return env.now - t0, stats, local.total_bytes


def restart_snapshot(env: RankEnv, cfg: ArtConfig):
    """Run the restart phase on one rank; returns (seconds, stats)."""
    yield from collectives.barrier(env.comm)
    t0 = env.now
    if cfg.method is ArtIoMethod.TCIO:
        stats = yield from io_tcio.restart(
            env,
            cfg.workload,
            cfg.file_name,
            verify=cfg.verify,
            per_array_cost=cfg.per_array_cost,
        )
    else:
        stats = yield from io_mpiio.restart(
            env,
            cfg.workload,
            cfg.file_name,
            verify=cfg.verify,
            per_array_cost=cfg.per_array_cost,
        )
    yield from collectives.barrier(env.comm)
    return env.now - t0, stats


def run_art(
    cfg: ArtConfig,
    *,
    cluster: Optional[ClusterSpec] = None,
    trace: Optional[TraceRecorder] = None,
) -> ArtResult:
    """Dump then restart under one simulated job; returns both timings."""
    result = ArtResult(config=cfg)

    def main(env: RankEnv):
        dump_s, dump_stats, local_bytes = yield from dump_snapshot(env, cfg)
        restart_s, restart_stats = yield from restart_snapshot(env, cfg)
        return dump_s, restart_s, dump_stats, restart_stats, local_bytes

    run: MpiRunResult = run_mpi(cfg.nprocs, main, cluster=cluster, trace=trace)
    result.dump_seconds = max(r[0] for r in run.returns)
    result.restart_seconds = max(r[1] for r in run.returns)
    result.dump_stats = run.returns[0][2]
    result.restart_stats = run.returns[0][3]
    result.snapshot_bytes = index_nbytes(cfg.workload.n_segments) + sum(
        r[4] for r in run.returns
    )
    result.counters = run.trace.summary()
    result.snapshot_contents = run.pfs.lookup(cfg.file_name).contents()
    return result
