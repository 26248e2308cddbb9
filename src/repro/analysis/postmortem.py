"""Where did the simulated time go? Per-resource utilization accounting.

Every reservation server and lock manager keeps busy/request counters;
:func:`analyze_run` folds them into one report so experiments can explain
*why* a configuration was slow (OST-bound? NIC-bound? lock-bound? matching
engine?) — the mechanism evidence behind the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.util.tables import render_table
from repro.util.units import format_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.mpi import MpiRunResult


@dataclass
class ResourceUsage:
    """One resource class's aggregate load."""

    name: str
    requests: int = 0
    busy_seconds: float = 0.0
    peak_utilization: float = 0.0  # of the busiest instance


@dataclass
class UtilizationReport:
    """Aggregated view of one simulated job."""

    elapsed: float
    resources: list[ResourceUsage] = field(default_factory=list)
    lock_acquires: int = 0
    lock_cache_hits: int = 0
    lock_waits: int = 0
    bytes_to_storage: int = 0
    bytes_from_storage: int = 0
    network_messages: int = 0
    network_bytes: int = 0

    def bottleneck(self) -> str:
        """The resource class with the highest peak utilization."""
        if not self.resources:
            return "none"
        return max(self.resources, key=lambda r: r.peak_utilization).name

    def render(self) -> str:
        """The report as an aligned ASCII block."""
        rows = [
            [
                r.name,
                r.requests,
                f"{r.busy_seconds * 1e3:.3f}ms",
                f"{r.peak_utilization * 100:.1f}%",
            ]
            for r in self.resources
        ]
        table = render_table(
            ["resource", "requests", "busy", "peak util"],
            rows,
            title=f"utilization over {self.elapsed * 1e3:.3f}ms simulated",
        )
        extras = (
            f"locks: {self.lock_acquires} acquires, {self.lock_cache_hits} cache hits, "
            f"{self.lock_waits} waits\n"
            f"storage: {format_size(self.bytes_to_storage)} written, "
            f"{format_size(self.bytes_from_storage)} read\n"
            f"network: {self.network_messages} messages, "
            f"{format_size(self.network_bytes)}\n"
            f"bottleneck: {self.bottleneck()}"
        )
        return table + "\n" + extras


def _usage(name: str, servers, horizon: float, requests_of, busy_of) -> ResourceUsage:
    usage = ResourceUsage(name=name)
    for s in servers:
        usage.requests += requests_of(s)
        busy = busy_of(s)
        usage.busy_seconds += busy
        if horizon > 0:
            usage.peak_utilization = max(usage.peak_utilization, min(1.0, busy / horizon))
    return usage


def analyze_run(result: "MpiRunResult") -> UtilizationReport:
    """Fold a finished run's counters into a :class:`UtilizationReport`."""
    world = result.world
    fabric = world.fabric
    horizon = result.elapsed
    report = UtilizationReport(elapsed=horizon)

    report.resources.append(
        _usage(
            "NIC tx",
            fabric.send_ports,
            horizon,
            lambda s: s.requests,
            lambda s: s.busy_time,
        )
    )
    report.resources.append(
        _usage(
            "NIC rx",
            fabric.recv_ports,
            horizon,
            lambda s: s.requests,
            lambda s: s.busy_time,
        )
    )
    report.resources.append(
        _usage(
            "fabric core",
            [fabric.core],
            horizon,
            lambda s: s.requests,
            lambda s: s.busy_time,
        )
    )
    report.resources.append(
        _usage(
            "node memory bus",
            fabric.memory,
            horizon,
            lambda s: s.requests,
            lambda s: s.busy_time,
        )
    )

    report.resources.append(
        _usage(
            "OST",
            world.pfs.osts,
            horizon,
            lambda o: o.read_requests + o.write_requests,
            lambda o: o.busy_time,
        )
    )
    report.resources.append(
        _usage(
            "storage link",
            world.pfs._client_links,
            horizon,
            lambda s: s.requests,
            lambda s: s.busy_time,
        )
    )
    for ost in world.pfs.osts:
        report.bytes_to_storage += ost.bytes_written
        report.bytes_from_storage += ost.bytes_read
    for name in world.pfs.list_files():
        locks = world.pfs.lookup(name).locks
        report.lock_acquires += locks.acquires
        report.lock_cache_hits += locks.cache_hits
        report.lock_waits += locks.waits

    msg = result.trace.get("net.msg")
    report.network_messages = msg.count
    report.network_bytes = int(msg.total)
    return report
