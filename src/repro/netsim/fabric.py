"""The interconnect fabric: rank-to-rank message timing and delivery.

``Fabric.transfer`` computes, at submission time, when a message's last byte
reaches the destination — pipelining it through the sender NIC, the fabric
core and the receiver NIC — then schedules a single delivery callback on the
engine. Intra-node messages bypass the NICs/core and use memory bandwidth.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.netsim.model import NetworkSpec
from repro.netsim.server import ReservationServer
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.util.errors import SimulationError


class Fabric:
    """Connects ``nranks`` ranks placed on nodes via ``node_of``.

    Parameters
    ----------
    engine: the event engine providing virtual time.
    spec: cost-model constants.
    node_of: per-rank node index (ranks on one node share its NIC ports).
    trace: the job's recorder (counters ``net.msg``, ``net.connection``,
        ``net.intranode``); a fresh one by default.
    faults: optional bound :class:`repro.faults.FaultPlan`; inter-node
        messages may then suffer latency spikes and transient drops
        (modelled as retransmission after a delivery timeout — the
        message still arrives, so two-sided matching cannot wedge).
    core: the machine's fabric core, when several fabrics share one
        (jobs of one machine sit on disjoint nodes, so the core is the only
        network resource they contend for); by default this fabric's own.
    """

    def __init__(
        self,
        engine: Engine,
        spec: NetworkSpec,
        node_of: Sequence[int],
        trace: Optional[TraceRecorder] = None,
        faults=None,
        core: Optional[ReservationServer] = None,
    ):
        spec.validate()
        self.engine = engine
        self.spec = spec
        self.node_of = list(node_of)
        self.trace = trace = trace or TraceRecorder()
        self.faults = faults
        n_nodes = (max(self.node_of) + 1) if self.node_of else 1
        self.send_ports = [
            ReservationServer(f"nic{n}.tx", spec.link_bandwidth, spec.per_message_overhead)
            for n in range(n_nodes)
        ]
        self.recv_ports = [
            ReservationServer(f"nic{n}.rx", spec.link_bandwidth, spec.per_message_overhead)
            for n in range(n_nodes)
        ]
        self.core = core if core is not None else ReservationServer(
            "fabric.core", spec.fabric_bandwidth
        )
        self.memory = [
            ReservationServer(f"mem{n}", spec.memcpy_bandwidth, spec.per_message_overhead)
            for n in range(n_nodes)
        ]
        self._connected: set[tuple[int, int]] = set()
        # Metric objects resolved once: delivery_time runs per message
        # (millions per FULL campaign) and the by-name registry lookups
        # were measurable in whole-run profiles.
        registry = trace.registry
        self._c_msg = registry.counter("net.msg")
        self._c_intranode = registry.counter("net.intranode")
        self._h_msg_bytes = registry.histogram("net.msg_bytes")

    def _node(self, rank: int) -> int:
        try:
            return self.node_of[rank]
        except IndexError:
            raise SimulationError(f"rank {rank} outside fabric") from None

    def delivery_time(self, src: int, dst: int, nbytes: int, *, rma: bool = False) -> float:
        """Reserve resources for one message; returns absolute delivery time.

        ``rma=True`` marks NIC-offloaded one-sided traffic, which pays the
        (much smaller) ``rma_message_overhead`` at each port instead of the
        two-sided per-message CPU overhead.
        """
        now = self.engine.now
        if nbytes < 0:
            raise SimulationError("negative message size")
        src_node = self._node(src)
        dst_node = self._node(dst)
        overhead = self.spec.rma_message_overhead if rma else None
        trace = self.trace
        tracer = trace.tracer
        self._c_msg.add(nbytes)
        self._h_msg_bytes.observe(nbytes)
        if src_node == dst_node:
            self._c_intranode.add(nbytes)
            t_mem = self.memory[src_node].reserve(now, nbytes, overhead)
            if tracer.enabled and nbytes > 0:
                tracer.complete(
                    "net.local", now, t_mem, f"mem{src_node}",
                    src=src, dst=dst, bytes=nbytes,
                )
            return t_mem
        start = now
        pair = (src, dst)
        if pair not in self._connected:
            self._connected.add(pair)
            start += self.spec.connection_setup
            trace.count("net.connection")
            if tracer.enabled:
                tracer.complete(
                    "net.conn.setup", now, start, f"nic{src_node}",
                    src=src, dst=dst,
                )
        t_tx = self.send_ports[src_node].reserve(start, nbytes, overhead)
        t_core = self.core.reserve(t_tx, nbytes)
        t_rx = self.recv_ports[dst_node].reserve(
            t_core + self.spec.latency, nbytes, overhead
        )
        if self.faults is not None:
            penalty = self.faults.network_penalty(src, dst, nbytes)
            if penalty > 0.0:
                t_rx += penalty
        if tracer.enabled:
            tracer.complete(
                "net.xfer", start, t_rx, f"nic{src_node}",
                src=src, dst=dst, bytes=nbytes, rma=rma,
            )
        return t_rx

    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_delivered: Callable[[], None],
        *,
        rma: bool = False,
    ) -> float:
        """Schedule *on_delivered* at the message's delivery time (returned)."""
        t = self.delivery_time(src, dst, nbytes, rma=rma)
        self.engine.schedule_at(t, on_delivered)
        return t

    def control_delay(self, src: int, dst: int, *, rma: bool = False) -> float:
        """Delivery time for a zero-payload control message (handshakes,
        lock requests). Shares ports/latency but carries no data bytes."""
        return self.delivery_time(src, dst, 0, rma=rma)

    def staging_copy(self, rank: int, nbytes: int) -> float:
        """Reserve *rank*'s node memory engine for one staging memcpy.

        Intra-node aggregation (``repro.topo``) moves data between ranks of
        one node through shared staging buffers. Those copies contend with
        intra-node messages for the node's memcpy bandwidth, but they are
        not fabric messages: they count ``topo.staging.bytes`` instead of
        ``net.msg``/``net.intranode``. Returns the absolute completion time.
        """
        if nbytes < 0:
            raise SimulationError("negative staging copy size")
        node = self._node(rank)
        t = self.memory[node].reserve(self.engine.now, nbytes, None)
        if nbytes > 0:
            self.trace.count("topo.staging.bytes", nbytes)
        return t
