"""Node-leader staging (``TcioConfig.aggregation == "node"``), in front of
an unchanged level-2 exchange: a drained level-1 buffer bound for another
node waits in the node's staging buffer, and the node's leader ships what
is staged for one owner as a single coalesced RMA sequence at the next
collective point (``docs/topology.md``). Owns the topology, the node
communicator, the staging buffer and the degraded flag.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import RMA_FAIL_DELAY
from repro.sim.engine import active_process
from repro.sim.sync import SimEvent
from repro.simmpi import collectives
from repro.topo import (
    NodeTopology, StagingBuffer, charge_staging_copy, coalesce_runs, split_by_node,
)
from repro.tcio.level2 import concat_deposits
from repro.util.errors import RetryBudgetExceeded, RmaTransientError


class NodeDrain:
    """One write handle's share of its node's staging buffer."""

    @classmethod
    def arm(cls, fh, gen: int):
        """This handle's node drain, or None when the job spans one node —
        every flush is intra-node already (collective coroutine)."""
        topo = NodeTopology.from_comm(fh.comm)
        if topo.n_nodes < 2:
            return None
        node_comm = yield from split_by_node(fh.comm, topo)
        return cls(fh, topo, node_comm, gen)

    def __init__(self, fh, topo: NodeTopology, node_comm, gen: int):
        self.fh = fh
        self.topo = topo
        self.node_comm = node_comm
        my_node = topo.node_of_rank(fh.comm.rank)
        self.leader = fh.comm.world_rank(topo.leader_of(my_node))
        capacity = fh.config.staging_segments * fh.mapping.segment_size
        # One staging buffer per node, published through ``world.shared``
        # and keyed by the open generation, with the owners some rank of
        # the node is shipping to right now. The leader (lowest comm rank
        # on the node) backs the buffer with simulated memory.
        self.staging, self.shipping = fh.env.world.shared.setdefault(
            ("tcio-stage", fh.name, gen, my_node),
            (StagingBuffer(my_node, self.leader, capacity=capacity), {}),
        )
        #: Set once the leader stayed unreachable past the retry budget:
        #: protocol agreement with it is gone and burning more retries
        #: buys nothing, so every later deposit takes the flat route.
        self.degraded = False
        if fh.env.rank == self.leader:
            fh._allocs.append(fh.env.world.memory.allocate(fh.env.rank, capacity, "topo.staging"))

    def deposit(self, gseg: int, disps, lens, payload: bytes):
        """Stage one drained level-1 buffer, or send it the flat way
        (coroutine; the handle's ``_deposit``).

        A deposit bypasses staging when its owner is this rank, on this
        node or known unreachable, when it would overflow the staging
        capacity, or once the handle is degraded. Whatever the node holds
        for that owner is older, so it is shipped first: a rank's writes
        reach the owner in program order.
        """
        fh = self.fh
        me, owner, degrade = fh.comm.rank, fh.mapping.owner_of_segment(gseg), fh._degrade
        if (
            not self.degraded
            and owner != me
            and not self.topo.same_node(owner, me)
            and (degrade is None or owner not in degrade.unreachable)
            and (yield from self._stage(owner, (gseg, disps, lens, payload)))
        ):
            return
        yield from self._ship(owner)
        push = degrade.deposit if degrade else fh.level2.push_blocks
        yield from push(gseg, disps, lens, payload)

    def _stage(self, owner: int, item: tuple):
        """Try to stage one deposit ``(gseg, disps, lens, payload)``
        (coroutine -> bool)."""
        fh, plan, stage = self.fh, self.fh._plan, self.staging
        gseg, disps, _lens, payload = item
        nbytes = len(payload)
        if stage.would_overflow(nbytes):
            fh._trace.count("topo.staging.overflow", nbytes)
            return False
        fh.level2._slot_base(gseg)  # capacity check before committing
        if plan is not None and fh.env.rank != self.leader:
            # A deposit crosses node memory shared with the leader; treat
            # it like an RMA toward the leader for fault purposes.
            def attempt(_attempt: int) -> None:
                if plan.rma_fault("staging", fh.env.rank, self.leader):
                    active_process().charge(RMA_FAIL_DELAY)
                    raise RmaTransientError("staging", fh.env.rank, self.leader)

            try:
                yield from plan.retry_call(
                    attempt, retry_on=RmaTransientError, what=f"topo.deposit(seg={gseg})"
                )
            except RetryBudgetExceeded:
                self.degraded = True
                plan.note_fallback("topo.deposit", rank=fh.env.rank, leader=self.leader)
                return False
        yield from charge_staging_copy(fh.env.world, fh.env.rank, nbytes)
        stage.deposit(owner, [item], nbytes)
        fh._trace.count("topo.deposit.bytes", nbytes)
        fh._trace.count("topo.deposit.blocks", len(disps))
        fh._trace.registry.histogram("topo.staging.occupancy").observe(stage.used)
        return True

    def drain(self):
        """Collective staging drain (coroutine): runs at every collective
        point after the local level-1 drain. A node barrier makes every
        member's deposits visible; then the leader ships each owner's bin."""
        yield from collectives.barrier(self.node_comm)
        if self.node_comm.rank == 0:
            for owner in self.staging.keys():
                yield from self._ship(owner)

    def _ship(self, owner: int):
        """Send everything staged for *owner* (coroutine), one ship per
        owner at a time: a bypassing depositor must not overtake pieces
        (its own older ones among them) that another rank of this node has
        picked up and not landed yet."""
        while owner in self.shipping:
            yield from self.shipping[owner].wait()
        pieces = self.staging.drain(owner)
        if pieces:
            landed = self.shipping[owner] = SimEvent(f"topo.ship(owner={owner})", sticky=True)
            yield from self._send(owner, pieces)
            del self.shipping[owner]
            landed.fire()

    def _send(self, owner: int, pieces: list):
        """One merged indexed RMA sequence of the staged deposits *pieces*
        to *owner* — or direct PFS writes when it stays unreachable past
        the retry budget (coroutine)."""
        fh, degrade, level2 = self.fh, self.fh._degrade, self.fh.level2
        if degrade is not None and owner in degrade.unreachable:
            yield from self._drain_fallback(pieces)
            return
        gsegs, disps, lens, payloads = zip(*pieces)
        nbytes = sum(map(len, payloads))
        # Pickup: reading the deposits out of node memory to build the
        # merged message is a second memcpy pass.
        yield from charge_staging_copy(fh.env.world, fh.env.rank, nbytes)
        offsets = [np.asarray(d) + level2._slot_base(g) for g, d in zip(gsegs, disps)]
        starts, sizes, payload = coalesce_runs(
            np.concatenate(offsets), np.concatenate(lens), b"".join(payloads)
        )
        span = level2.tracer.span(
            "topo.drain", target=owner, bytes=len(payload), blocks=len(starts)
        )
        try:
            yield from level2._ship(owner, 0, starts, sizes, payload, span, f"topo.drain({owner=})")
        except RetryBudgetExceeded:
            degrade.unreachable.add(owner)
            fh._plan.note_fallback("topo.drain", owner=owner, rank=fh.env.rank)
            yield from self._drain_fallback(pieces)
            return
        for g, d, n in zip(gsegs, disps, lens):
            fh.directory.note_deposit(g, d, n, level2.rank)
        fh._trace.count("topo.drain.messages", 1)
        fh._trace.count("topo.drain.bytes", nbytes)

    def _drain_fallback(self, pieces: list):
        """Write one owner's staged deposits straight to the PFS.

        Reuses the flat fallback machinery segment by segment, in
        ascending segment order with each segment's deposits in the order
        they were staged, so the written ranges are published and the
        (unreachable) owner's writeback skips them.
        """
        by_seg: dict[int, list] = {}
        for g, disps, lens, payload in pieces:
            by_seg.setdefault(g, []).append((disps, lens, payload))
        for g in sorted(by_seg):
            yield from self.fh._degrade.fallback_flush(g, *concat_deposits(by_seg[g]))
