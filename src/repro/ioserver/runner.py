"""Trace-driven session runner, direct replays, and load-test reporting.

:func:`run_ioserver` drives one :class:`~repro.ioserver.trace.WorkloadTrace`
through the delegate servers and distills the observable outcome into an
:class:`IoServerResult`: the final file image (plus digest), throughput
under load, queue-depth statistics, and client-side tail latency
(p50/p90/p99 on the virtual clock) per request verb.

:func:`replay_direct` replays the *same* trace without servers — direct
TCIO, collective two-phase MPI-IO ("ocio"), or independent MPI-IO — so
differential tests can demand byte-identical images and fetch results
across all four execution paths.

Everything here is deterministic: same trace + same topology → the same
``(time, seq)`` schedule, the same metrics document, the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.ioserver.protocol import IoServerConfig, Placement, plan_placement
from repro.ioserver.server import op_runs, run_clients, serve
from repro.ioserver.trace import WorkloadTrace, expected_image, payload_bytes
from repro.obs.export import metrics_json
from repro.obs.metrics import percentile
from repro.util.errors import IoServerError

#: Replay methods :func:`replay_direct` understands.
DIRECT_METHODS = ("tcio", "ocio", "mpiio")

#: Latency quantiles reported per verb (per cent).
QUANTILES = (50.0, 90.0, 99.0)


def session_node_of(nranks: int, cores_per_node: int) -> list[int]:
    """The node map :func:`repro.simmpi.run_mpi` derives for this shape."""
    return [r // cores_per_node for r in range(nranks)]


def plan_for(
    trace: WorkloadTrace, nranks: int, cores_per_node: int,
    config: IoServerConfig,
) -> Placement:
    """The placement a session of this shape will use (pure, pre-run)."""
    return plan_placement(
        session_node_of(nranks, cores_per_node), trace.nclients, config
    )


def _tcio_config(trace: WorkloadTrace, nranks: int, config: IoServerConfig, stripe: int):
    """The shared TCIO handle's config: one segment per *stripe*, the
    file system's lock unit, so no two owners write into one lock."""
    from repro.tcio import TcioConfig

    total = max(len(expected_image(trace)), stripe)
    base = TcioConfig.sized_for(total, nranks, stripe)
    return replace(base, journal=config.journal, ft=config.failover)


@dataclass
class IoServerResult:
    """Everything one server-mode session run reports."""

    nranks: int
    ndelegates: int
    nclients: int
    elapsed: float
    image: bytes
    throughput: float  # payload bytes per virtual second
    #: verb -> {"n", "p50", "p90", "p99", "max"} (virtual seconds)
    latency: dict[str, dict[str, float]] = field(default_factory=dict)
    admitted: int = 0
    rejected: int = 0
    applied_writes: int = 0
    max_depth: int = 0
    epochs_committed: int = 0
    fetched: dict[int, bytes] = field(default_factory=dict)
    delegate_stats: list[dict] = field(default_factory=list)
    mpi: object = None  # the underlying MpiRunResult
    aborted: Optional[BaseException] = None

    @property
    def image_sha256(self) -> str:
        return hashlib.sha256(self.image).hexdigest()

    def metrics_payload(self) -> dict:
        """The deterministic metrics document (virtual-clock only)."""
        return {
            "session": {
                "nranks": self.nranks,
                "ndelegates": self.ndelegates,
                "nclients": self.nclients,
                "elapsed_virtual_s": round(self.elapsed, 12),
                "throughput_bytes_per_s": round(self.throughput, 6),
                "admitted": self.admitted,
                "rejected": self.rejected,
                "applied_writes": self.applied_writes,
                "queue_depth_max": self.max_depth,
                "epochs_committed": self.epochs_committed,
                "image_sha256": self.image_sha256,
                "latency": self.latency,
            },
            "metrics": metrics_json(self.mpi.trace.registry)
            if self.mpi is not None
            else {},
        }

    def write_metrics(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.metrics_payload(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def summary(self) -> str:
        lines = [
            f"ioserver: {self.nclients} clients over {self.ndelegates} "
            f"delegates ({self.nranks} ranks)",
            f"  elapsed {self.elapsed * 1e3:.3f} ms virtual, "
            f"throughput {self.throughput / 1e6:.2f} MB/s",
            f"  admitted {self.admitted}, rejected {self.rejected}, "
            f"max queue depth {self.max_depth}, "
            f"epochs committed {self.epochs_committed}",
        ]
        for verb in sorted(self.latency):
            q = self.latency[verb]
            lines.append(
                f"  {verb:<6} n={int(q['n'])}: p50 {q['p50'] * 1e6:.1f} us, "
                f"p90 {q['p90'] * 1e6:.1f} us, p99 {q['p99'] * 1e6:.1f} us"
            )
        lines.append(f"  image sha256 {self.image_sha256[:16]}…")
        return "\n".join(lines)


def _latency_summary(samples: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for verb in sorted(samples):
        values = samples[verb]
        if not values:
            continue
        out[verb] = {
            "n": float(len(values)),
            "max": max(values),
            **{f"p{int(q)}": percentile(values, q) for q in QUANTILES},
        }
    return out


def _session_main(trace, config, placement, tcio_config):
    """The per-rank program of one server-mode session."""
    from repro.simmpi.group import comm_from_ranks

    delegates = set(placement.delegates)

    def main(env):
        sub = yield from comm_from_ranks(env.comm, placement.delegates)
        if env.rank in delegates:
            stats = yield from serve(
                env, sub, config, tcio_config,
                placement.clients_of_delegate(env.rank), trace.file_name,
                placement=placement,
            )
            return {"role": "delegate", "stats": stats}
        out = yield from run_clients(env, config, placement, trace)
        out["role"] = "client"
        return out

    return main


def run_ioserver(
    trace: WorkloadTrace,
    *,
    nranks: int = 6,
    cores_per_node: int = 3,
    config: Optional[IoServerConfig] = None,
    recorder=None,
    faults=None,
) -> IoServerResult:
    """Run *trace* through delegate I/O servers; distill the outcome.

    The cluster is the calibrated ablation preset shaped as
    ``nranks/cores_per_node``; delegates and clients place per *config*
    (node leaders by default). With ``faults`` bound the run may abort —
    the result then carries the exception and the post-crash ``mpi``
    snapshot for recovery tooling, with empty load metrics.
    """
    from repro.experiments.topo_ablation import ablation_cluster
    from repro.simmpi import run_mpi

    config = config or IoServerConfig()
    config.validate()
    trace.validate()
    placement = plan_for(trace, nranks, cores_per_node, config)
    for d in placement.delegates:
        if not placement.clients_of_delegate(d):
            raise IoServerError(
                f"delegate rank {d} would serve no clients; "
                f"use fewer delegates or more clients"
            )
    cluster = ablation_cluster(nranks, cores_per_node)
    tcio_config = _tcio_config(
        trace, len(placement.delegates), config, cluster.lustre.stripe_size
    )
    result = run_mpi(
        nranks,
        _session_main(trace, config, placement, tcio_config),
        cluster=cluster,
        trace=recorder,
        faults=faults,
    )
    out = IoServerResult(
        nranks=nranks,
        ndelegates=len(placement.delegates),
        nclients=trace.nclients,
        elapsed=result.elapsed,
        image=b"",
        throughput=0.0,
        mpi=result,
        aborted=result.aborted,
    )
    if result.aborted is not None:
        return out
    if result.pfs.exists(trace.file_name):
        out.image = result.pfs.lookup(trace.file_name).contents()
    samples: dict[str, list[float]] = {}
    for rank in placement.client_ranks:
        ret = result.returns[rank]
        for verb, values in ret["latencies"].items():
            samples.setdefault(verb, []).extend(values)
        out.fetched.update(ret["fetched"])
    out.latency = _latency_summary(samples)
    for rank in placement.delegates:
        if result.returns[rank] is None:
            # A delegate lost to a fail-stop crash under failover: the
            # survivors completed the session without it.
            continue
        stats = result.returns[rank]["stats"]
        out.delegate_stats.append({"rank": rank, **stats})
        out.admitted += stats["admitted"]
        out.rejected += stats["rejected"]
        out.applied_writes += stats["applied_writes"]
        out.max_depth = max(out.max_depth, stats["max_depth"])
        out.epochs_committed = max(out.epochs_committed, stats["committed_epoch"])
    out.throughput = trace.written_bytes / result.elapsed if result.elapsed else 0.0
    return out


# ----------------------------------------------------------------------
# direct (server-less) replays for the differential suites
# ----------------------------------------------------------------------


@dataclass
class DirectReplay:
    """A server-less replay's observable outcome."""

    method: str
    elapsed: float
    image: bytes
    fetched: dict[int, bytes] = field(default_factory=dict)


def _tcio_main(trace, nranks):
    from repro.tcio import TCIO_RDONLY, TCIO_WRONLY, TcioFile

    def main(env):
        mine = {c for c in range(trace.nclients) if c % env.size == env.rank}
        ops = [op for op in trace.ops if op.client in mine]
        config = _tcio_config(trace, env.size, IoServerConfig(), env.pfs.spec.stripe_size)
        fh = None
        fetched = {}
        for op, _ in op_runs(ops):
            if op.op == "open":
                mode = TCIO_WRONLY if op.mode == "w" else TCIO_RDONLY
                fh = yield from TcioFile.open(env, trace.file_name, mode, config)
            elif op.op == "flush":
                yield from fh.flush()
            elif op.op == "close":
                yield from fh.close()
                fh = None
            else:
                if op.delay:
                    yield from env.process.sleep(op.delay)
                if op.op == "write":
                    payload = payload_bytes(trace.seed, op.client, op.seq, op.nbytes)
                    yield from fh.write_at(op.offset, payload)
                else:
                    fetched[op.seq] = yield from fh.read_now(op.offset, op.nbytes)
        return fetched

    return main


def _mpiio_main(trace, collective: bool):
    """Independent MPI-IO, or ROMIO-style two-phase ("ocio") when
    *collective* — one ``write_at_all``/``read_at_all`` per client per
    round, each client's round coalesced into its own region image."""
    from repro.mpiio import (
        MODE_CREATE,
        MODE_RDONLY,
        MODE_RDWR,
        MpiFile,
    )
    from repro.simmpi.collectives import barrier

    def main(env):
        mine = sorted(
            c for c in range(trace.nclients) if c % env.size == env.rank
        )
        ops = [op for op in trace.ops if op.client in set(mine)]
        fh = None
        fetched = {}
        pending = []  # writes of the current round (collective mode)

        def coalesce(client):
            """One covering write for *client*'s round, program order."""
            writes = [op for op in pending if op.client == client]
            lo = min(op.offset for op in writes)
            hi = max(op.offset + op.nbytes for op in writes)
            buf = bytearray(hi - lo)
            for op in writes:
                buf[op.offset - lo : op.offset - lo + op.nbytes] = (
                    payload_bytes(trace.seed, op.client, op.seq, op.nbytes)
                )
            return lo, bytes(buf)

        for op, _ in op_runs(ops):
            if op.op == "open":
                mode = MODE_RDONLY if op.mode == "r" else MODE_RDWR | MODE_CREATE
                fh = yield from MpiFile.open(env, trace.file_name, mode)
            elif op.op == "flush":
                if collective:
                    for client in mine:
                        lo, buf = coalesce(client)
                        yield from fh.write_at_all(lo, buf)
                    pending.clear()
                yield from barrier(env.comm)
            elif op.op == "close":
                if collective and pending:
                    raise IoServerError("unflushed writes at close")
                yield from fh.close()
                fh = None
            else:
                if op.delay:
                    yield from env.process.sleep(op.delay)
                if op.op == "write" and collective:
                    pending.append(op)
                elif op.op == "write":
                    payload = payload_bytes(trace.seed, op.client, op.seq, op.nbytes)
                    yield from fh.write_at(op.offset, payload)
                elif collective:
                    fetched[op.seq] = yield from fh.read_at_all(op.offset, op.nbytes)
                else:
                    fetched[op.seq] = yield from fh.read_at(op.offset, op.nbytes)
        return fetched

    return main


def replay_direct(
    trace: WorkloadTrace,
    method: str,
    *,
    nranks: int = 4,
    cores_per_node: int = 2,
) -> DirectReplay:
    """Replay *trace* without servers; clients spread ``c % nranks``.

    ``method`` is one of ``"tcio"`` (direct collective TCIO),
    ``"ocio"`` (two-phase collective MPI-IO), or ``"mpiio"``
    (independent MPI-IO). The final image and every fetch answer must
    match server mode byte-for-byte — that is the differential oracle.
    """
    from repro.experiments.topo_ablation import ablation_cluster
    from repro.simmpi import run_mpi

    if method not in DIRECT_METHODS:
        raise IoServerError(f"unknown replay method {method!r}")
    trace.validate()
    if nranks > trace.nclients:
        raise IoServerError(
            f"{nranks} ranks for {trace.nclients} clients: "
            f"every replay rank needs at least one client"
        )
    if method == "ocio" and trace.nclients % nranks != 0:
        raise IoServerError(
            "ocio replay needs nclients divisible by nranks "
            "(equal collective call counts per rank)"
        )
    main = (
        _tcio_main(trace, nranks)
        if method == "tcio"
        else _mpiio_main(trace, collective=(method == "ocio"))
    )
    result = run_mpi(
        nranks, main, cluster=ablation_cluster(nranks, cores_per_node)
    )
    if result.aborted is not None:
        raise RuntimeError(f"direct replay aborted: {result.aborted}")
    fetched: dict[int, bytes] = {}
    for ret in result.returns:
        fetched.update(ret)
    image = (
        result.pfs.lookup(trace.file_name).contents()
        if result.pfs.exists(trace.file_name)
        else b""
    )
    return DirectReplay(
        method=method, elapsed=result.elapsed, image=image, fetched=fetched
    )
