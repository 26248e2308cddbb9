"""Network parameterization.

Defaults approximate the paper's testbed fabric (Mellanox InfiniBand QDR,
40 Gbit/s point-to-point, fat tree) after the global size scale-down
described in DESIGN.md; see :mod:`repro.cluster.lonestar` for the calibrated
preset actually used by the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import GIB, KIB, MIB


@dataclass(frozen=True)
class NetworkSpec:
    """Cost-model constants for the simulated interconnect.

    Attributes
    ----------
    link_bandwidth:
        Per-NIC bandwidth in bytes/s, each direction modeled separately.
    latency:
        End-to-end propagation latency per message, seconds.
    per_message_overhead:
        CPU/NIC injection overhead charged per message on each port,
        seconds. This is what makes many small messages slower than one
        large one even with infinite bandwidth.
    connection_setup:
        One-time cost the first time a given (source rank, destination
        rank) pair communicates — queue-pair establishment on InfiniBand.
        The paper attributes OCIO's poor scaling to exactly this: "the
        number of network connections increases quickly with the growth of
        computing nodes".
    fabric_bandwidth:
        Aggregate bytes/s through the fat-tree core (bisection bandwidth).
        Simultaneous transfers share it FIFO, so synchronized bursts pay a
        queueing penalty that staggered transfers avoid.
    memcpy_bandwidth:
        Bytes/s for intra-node transfers (shared-memory copies bypass the
        NIC and fabric but still pay per-message overhead).
    eager_limit:
        Messages at or below this many bytes use the eager protocol (no
        rendezvous handshake); larger ones handshake first.
    """

    link_bandwidth: float = 3.0 * GIB
    latency: float = 2.0e-6
    per_message_overhead: float = 0.5e-6
    connection_setup: float = 100.0e-6
    fabric_bandwidth: float = 64.0 * GIB
    memcpy_bandwidth: float = 6.0 * GIB
    eager_limit: int = 12 * KIB
    #: Two-sided receive matching costs (charged per *message*, serialized
    #: at the receiving rank's matching engine; one-sided RMA bypasses this
    #: entirely — RDMA writes never touch the target CPU). The per-entry
    #: term models posted/unexpected queue pressure: a rank sinking P
    #: simultaneous messages pays O(P^2) total matching time — the
    #: "collective wall" that makes synchronized all-to-all exchanges
    #: degrade superlinearly at scale.
    match_overhead: float = 0.4e-6
    match_queue_overhead: float = 1.0e-6
    #: Origin-side cost of one passive-target lock epoch (lock + unlock
    #: bookkeeping, RTT-bound on real fabrics). Charged once per
    #: MPI_Win_lock; data transfer costs are separate. Shared epochs are
    #: cheaper: concurrent readers piggyback on a cached lock state, while
    #: exclusive epochs must invalidate it.
    rma_epoch_overhead: float = 6.0e-6
    rma_shared_epoch_overhead: float = 1.5e-6
    #: Per-message NIC-port overhead for one-sided (RDMA) traffic. RDMA
    #: puts/gets are serviced by NIC DMA engines without host CPU
    #: involvement, so their per-message port cost is far below the
    #: two-sided ``per_message_overhead``.
    rma_message_overhead: float = 0.1e-6

    def validate(self) -> None:
        """Raise ValueError on inconsistent network constants."""
        if min(self.link_bandwidth, self.fabric_bandwidth, self.memcpy_bandwidth) <= 0:
            raise ValueError("bandwidths must be positive")
        if min(self.latency, self.per_message_overhead, self.connection_setup) < 0:
            raise ValueError("latencies must be non-negative")
        if min(self.match_overhead, self.match_queue_overhead) < 0:
            raise ValueError("matching overheads must be non-negative")
        if self.rma_epoch_overhead < 0 or self.rma_shared_epoch_overhead < 0:
            raise ValueError("rma epoch overheads must be non-negative")
        if self.rma_message_overhead < 0:
            raise ValueError("rma_message_overhead must be non-negative")
        if self.eager_limit < 0:
            raise ValueError("eager_limit must be non-negative")


#: A spec with huge bandwidth and zero latency; useful in unit tests that
#: check data movement semantics without caring about timing.
INSTANT = NetworkSpec(
    link_bandwidth=1e18,
    latency=0.0,
    per_message_overhead=0.0,
    connection_setup=0.0,
    fabric_bandwidth=1e18,
    memcpy_bandwidth=1e18,
    eager_limit=64 * MIB,
    match_overhead=0.0,
    match_queue_overhead=0.0,
    rma_epoch_overhead=0.0,
    rma_shared_epoch_overhead=0.0,
    rma_message_overhead=0.0,
)
