"""Spans of the harness's own steps, and what a traced iteration captures.

Everything here observes the program from outside. Spans wrap the calls the
harness makes (run, set-up, warm-up, iteration, phase, verify); per-call
spans inside the program would number 10^6 per iteration and are a later
change. The simulated work counts come from the objects the drivers already
build — each job's ``MpiRunResult`` and each TCIO handle's ``TcioStats`` —
which the traced iteration gets hold of by interposing on the names the
driver modules import (``run_mpi``, ``TcioStats``) for its duration.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.art.app
import repro.bench.synthetic
import repro.simmpi
import repro.tcio.file
from repro.analysis.postmortem import analyze_run
from repro.ioserver import IoServerResult
from repro.tcio.stats import TcioStats

from benchmarks.e2e.workloads import Outcome


class Spans:
    """In-memory span list; written out when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start_s": time.perf_counter() - self._t0,
            "end_s": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end_s"] = time.perf_counter() - self._t0


@dataclass
class Captured:
    """The simulated jobs and TCIO handles one iteration created."""

    runs: list = field(default_factory=list)
    tcio_stats: list = field(default_factory=list)


#: The names through which the three drivers reach ``run_mpi``.
_RUN_MPI_SITES = (repro.bench.synthetic, repro.art.app, repro.simmpi)


@contextmanager
def capture(spans: Spans):
    """Record every simulated job and TCIO handle created inside the block."""
    captured = Captured()
    run_mpi = repro.simmpi.run_mpi

    def recording_run_mpi(*args, **kwargs):
        with spans.span("phase"):
            result = run_mpi(*args, **kwargs)
        captured.runs.append(result)
        return result

    def recording_stats(*args, **kwargs):
        stats = TcioStats(*args, **kwargs)
        captured.tcio_stats.append(stats)
        return stats

    for module in _RUN_MPI_SITES:
        module.run_mpi = recording_run_mpi
    repro.tcio.file.TcioStats = recording_stats
    try:
        yield captured
    finally:
        for module in _RUN_MPI_SITES:
            module.run_mpi = run_mpi
        repro.tcio.file.TcioStats = TcioStats


def simulated_counts(captured: Captured, outcome: Outcome) -> dict[str, float]:
    """The per-layer simulated work and occupancy metrics of one iteration."""
    counts: dict[str, float] = {}  # counter name -> occurrences
    totals: dict[str, float] = {}  # counter name -> summed amounts
    busy: dict[str, float] = {}  # resource class -> busy simulated seconds
    locks = {"acquires": 0, "waits": 0, "cache_hits": 0}
    ost_peak = 0.0
    for run in captured.runs:
        for name, (count, total) in run.trace.summary().items():
            counts[name] = counts.get(name, 0) + count
            totals[name] = totals.get(name, 0.0) + total
        report = analyze_run(run)
        for resource in report.resources:
            busy[resource.name] = busy.get(resource.name, 0.0) + resource.busy_seconds
            if resource.name == "OST":
                ost_peak = max(ost_peak, resource.peak_utilization)
        locks["acquires"] += report.lock_acquires
        locks["waits"] += report.lock_waits
        locks["cache_hits"] += report.lock_cache_hits

    tcio: dict[str, int] = {}
    for stats in captured.tcio_stats:
        for key, value in stats.as_dict().items():
            tcio[key] = tcio.get(key, 0) + value
    drains = (
        tcio.get("local_flushes", 0)
        + tcio.get("remote_flushes", 0)
        + tcio.get("fetches", 0)
    )
    calls = tcio.get("write_calls", 0) + tcio.get("read_calls", 0)

    out = {
        "sim_write_s": outcome.sim_write_s or 0.0,
        "sim_read_s": outcome.sim_read_s or 0.0,
        "netsim.msgs": counts.get("net.msg", 0),
        "netsim.bytes": int(totals.get("net.msg", 0)),
        "netsim.connections": counts.get("net.connection", 0),
        "netsim.intranode_msgs": counts.get("net.intranode", 0),
        "netsim.nic_tx_busy_s": busy.get("NIC tx", 0.0),
        "netsim.nic_rx_busy_s": busy.get("NIC rx", 0.0),
        "netsim.core_busy_s": busy.get("fabric core", 0.0),
        "netsim.membus_busy_s": busy.get("node memory bus", 0.0),
        "simmpi.sends": counts.get("mpi.send", 0),
        "simmpi.match_delay_s": totals.get("mpi.match_delay", 0.0),
        "simmpi.rma_puts": counts.get("rma.put", 0),
        "simmpi.rma_gets": counts.get("rma.get", 0),
        "simmpi.rma_put_blocks": int(totals.get("rma.put_blocks", 0)),
        "simmpi.rma_get_blocks": int(totals.get("rma.get_blocks", 0)),
        "simmpi.rma_epochs": counts.get("rma.lock", 0),
        "pfs.write_reqs": counts.get("pfs.write", 0),
        "pfs.read_reqs": counts.get("pfs.read", 0),
        "pfs.bytes_written": int(totals.get("pfs.write", 0)),
        "pfs.bytes_read": int(totals.get("pfs.read", 0)),
        "pfs.lock_acquires": locks["acquires"],
        "pfs.lock_waits": locks["waits"],
        "pfs.lock_cache_hits": locks["cache_hits"],
        "pfs.ost_busy_s": busy.get("OST", 0.0),
        "pfs.ost_peak_util": ost_peak,
        "pfs.link_busy_s": busy.get("storage link", 0.0),
        "mpiio.collective_calls": counts.get("ocio.write_all", 0)
        + counts.get("ocio.read_all", 0),
        "tcio.calls_per_flush": calls / drains if drains else 0.0,
    }
    for key in (
        "write_calls", "read_calls", "local_flushes", "remote_flushes",
        "put_blocks", "get_blocks", "segment_loads", "segment_writebacks",
        "fetches",
    ):
        out[f"tcio.{key}"] = tcio.get(key, 0)

    server = outcome.raw if isinstance(outcome.raw, IoServerResult) else None
    latency = server.latency if server is not None else {}
    out.update({
        "ioserver.admitted": server.admitted if server else 0,
        "ioserver.rejected": server.rejected if server else 0,
        "ioserver.queue_depth_max": server.max_depth if server else 0,
        "ioserver.epochs_committed": server.epochs_committed if server else 0,
        "ioserver.write_p99_sim_s": latency.get("write", {}).get("p99", 0.0),
        "ioserver.fetch_p99_sim_s": latency.get("fetch", {}).get("p99", 0.0),
    })
    return out
