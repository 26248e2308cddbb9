"""Two-phase collective I/O — the paper's "OCIO" (ROMIO's algorithm).

Write path (Section III.A of the paper):

1. Ranks allgather their min/max accessed file offsets; the aggregate
   ``[gmin, gmax)`` region is divided into equal, disjoint *file domains*,
   one per aggregator ("each region is assigned to a temporary buffer per
   process").
2. **Data exchange phase**: every rank splits its pieces by file domain and
   ships them to the owning aggregators with nonblocking two-sided
   messaging (irecvs first, then isends, then waitall) — the synchronized
   all-to-all whose matching/connection costs grow with process count.
3. **I/O phase**: each aggregator assembles its domain in a temporary
   buffer sized like the whole domain (the memory behaviour behind the
   Fig. 6 OOM) and issues one large contiguous storage access.

The read path runs the phases in reverse: aggregators read their domains,
then scatter requested blocks back to the requesting ranks.

That sequence is spelt once per direction (:func:`write_all`,
:func:`read_all`). Two hints parametrise it and nothing else varies:
``cb_aggregation`` picks the *edge router* — who messages which
aggregator, flat or through the node leaders (:class:`NodeExchange`) —
and ``cb_rounds_buffer`` the *window* — steps 2–3 run once over whole
domains, or once per bounded slice of them (ROMIO's ``cb_buffer_size``
rounds). See ``docs/architecture.md``.
"""

from __future__ import annotations

import bisect
from typing import Optional, TYPE_CHECKING

from repro.faults.retry import pfs_read, pfs_write
from repro.obs.spans import NULL_TRACER
from repro.simmpi import collectives
from repro.simmpi.comm import CTX_COLL, pack_object, unpack_object, wait_all
from repro.topo import (
    NodeTopology,
    StagingBuffer,
    charge_staging_copy,
    coalesce_blocks,
    split_by_node,
)
from repro.util.errors import MpiIoError
from repro.util.intervals import Extent

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpiio.file import MpiFile


class FileDomains:
    """The equal division of ``[gmin, gmax)`` over the aggregators."""

    def __init__(self, gmin: int, gmax: int, naggs: int, align: int = 1):
        if gmax < gmin:
            raise MpiIoError(f"bad aggregate region [{gmin}, {gmax})")
        if naggs < 1:
            raise MpiIoError("need at least one aggregator")
        self.gmin = gmin
        self.gmax = gmax
        self.naggs = naggs
        total = gmax - gmin
        base, rem = divmod(total, naggs)
        bounds = [gmin]
        for i in range(naggs):
            size = base + (1 if i < rem else 0)
            bounds.append(bounds[-1] + size)
        if align > 1:
            # Ablation: snap interior boundaries up to lock-unit multiples.
            for i in range(1, naggs):
                snapped = -(-(bounds[i] - gmin) // align) * align + gmin
                bounds[i] = min(max(snapped, bounds[i - 1]), gmax)
            bounds[naggs] = gmax
        self.bounds = bounds

    def domain(self, agg: int) -> Extent:
        """Aggregator *agg*'s file domain extent."""
        return Extent(self.bounds[agg], self.bounds[agg + 1])

    def owner_of(self, offset: int) -> int:
        """Aggregator whose domain contains file byte *offset*."""
        if not (self.gmin <= offset < self.gmax):
            raise MpiIoError(f"offset {offset} outside aggregate region")
        idx = bisect.bisect_right(self.bounds, offset) - 1
        return min(idx, self.naggs - 1)

    def split(self, extent: Extent) -> list[tuple[int, Extent]]:
        """Cut *extent* at domain boundaries: (aggregator, piece) pairs."""
        out: list[tuple[int, Extent]] = []
        pos = extent.start
        while pos < extent.stop:
            agg = self.owner_of(pos)
            stop = min(extent.stop, self.bounds[agg + 1])
            out.append((agg, Extent(pos, stop)))
            pos = stop
        return out


def spread_aggregators(topo: NodeTopology, naggs: int) -> list[int]:
    """Topology-aware aggregator placement: round-robin across nodes.

    The flat path puts the ``cb_nodes`` aggregators on ranks
    ``0..naggs-1``, which packs them onto the first few nodes — every
    exchange message then converges on those NICs. Taking the k-th rank
    of each node in turn (leaders first) spreads the aggregators over as
    many nodes as possible, and guarantees one aggregator per node
    whenever ``naggs >= n_nodes``.
    """
    per_node = [topo.ranks_on_node(n) for n in topo.nodes]
    out: list[int] = []
    k = 0
    while len(out) < naggs:
        for members in per_node:
            if k < len(members):
                out.append(members[k])
                if len(out) == naggs:
                    break
        k += 1
    return out


class NodeExchange:
    """Per-handle state of the node-aggregated exchange (``cb_aggregation``).

    The exchange replaces the flat counts-alltoall + rank-to-aggregator
    data pattern with a **fixed, data-independent edge set**:

    * ranks sharing the aggregator's node send to it directly (intra-node);
    * every other node contributes exactly one message, sent by its leader,
      who coalesces the node's staged pieces (``repro.topo``);
    * a node whose leader is in the *down* set (``FaultSpec.
      unreachable_ranks`` — static and globally known, so every rank
      computes the same edges) degrades to flat: its members each send
      directly instead of staging.

    Because the edges are known from topology alone, every edge is always
    sent (possibly empty) and the counts exchange disappears — that
    alltoall alone costs P(P-1) messages regardless of payload.
    """

    def __init__(self, mf: "MpiFile", node_comm):
        comm = mf.comm
        self.comm = comm
        self.topo = NodeTopology.from_comm(comm)
        self.node_comm = node_comm
        self.node = self.topo.node_of_rank(comm.rank)
        self.leader = self.topo.leader_of(self.node)  # comm rank
        self.is_leader = comm.rank == self.leader
        plan = getattr(mf.env.world, "faults", None)
        self.down: set[int] = (
            set(plan.spec.unreachable_ranks) if plan is not None else set()
        )
        self.stage: StagingBuffer = mf.env.world.shared.setdefault(
            ("ocio-stage", comm._comm_id, self.node),
            StagingBuffer(self.node, comm.world_rank(self.leader)),
        )
        self._seq = 0

    @classmethod
    def create(cls, mf: "MpiFile"):
        """Collective construction (coroutine): the node split barriers."""
        topo = NodeTopology.from_comm(mf.comm)
        node_comm = yield from split_by_node(mf.comm, topo)
        return cls(mf, node_comm)

    @property
    def active(self) -> bool:
        """False on a single node — everything is intra-node already."""
        return self.topo.n_nodes > 1

    def next_seq(self) -> int:
        """A per-collective-call staging-key counter (lockstep on all ranks)."""
        self._seq += 1
        return self._seq

    def leader_down(self, node: int) -> bool:
        """True when *node*'s leader is in the static down set."""
        return self.comm.world_rank(self.topo.leader_of(node)) in self.down

    def routes_direct(self, sender: int, agg: int) -> bool:
        """Whether *sender* messages aggregator *agg* itself (comm ranks)."""
        return self.topo.same_node(sender, agg) or self.leader_down(
            self.topo.node_of_rank(sender)
        )

    def senders_for(self, agg: int) -> list[int]:
        """The comm ranks expected to message aggregator *agg* (fixed edges)."""
        out: list[int] = []
        a_node = self.topo.node_of_rank(agg)
        for n in self.topo.nodes:
            members = self.topo.ranks_on_node(n)
            if n == a_node:
                out.extend(r for r in members if r != agg)
            elif self.leader_down(n):
                out.extend(members)
            else:
                out.append(self.topo.leader_of(n))
        return out


def _get_node_exchange(mf: "MpiFile"):
    """The handle's NodeExchange, or None when the flat path applies.

    Coroutine, built lazily at the first collective call (its
    ``split_by_node`` is collective, and every rank reaches this point in
    lockstep).
    """
    if mf.hints.cb_aggregation != "node":
        return None
    if mf._nodex is None:
        mf._nodex = yield from NodeExchange.create(mf)
    return mf._nodex if mf._nodex.active else None


def _setup(mf: "MpiFile", nx: Optional[NodeExchange], stream_pos: int, nbytes: int):
    """Common prologue (coroutine): this rank's pieces, the file domains,
    each domain's aggregator (comm ranks) and the index of the domain this
    rank aggregates (None for a non-aggregator). Domains are None when no
    rank accesses anything."""
    comm = mf.comm
    pieces = mf.view.map_pieces(stream_pos, nbytes) if nbytes else []
    lo = pieces[0][0].start if pieces else None
    hi = pieces[-1][0].stop if pieces else None
    ranges = yield from collectives.allgather(comm, (lo, hi))
    los = [lo_ for lo_, _ in ranges if lo_ is not None]
    his = [h for _, h in ranges if h is not None]
    if not los:
        return pieces, None, (), None
    gmin, gmax = min(los), max(his)
    naggs = mf.hints.cb_nodes or comm.size
    naggs = min(naggs, comm.size)
    align = mf.pfs_file.layout.stripe_size if mf.hints.cb_align_stripes else 1
    domains = FileDomains(gmin, gmax, naggs, align)
    aggs = range(naggs) if nx is None else spread_aggregators(nx.topo, naggs)
    mine = aggs.index(comm.rank) if comm.rank in aggs else None
    return pieces, domains, aggs, mine


def _domain_pieces(pieces, domains: FileDomains):
    """Cut a rank's (file extent, memory offset) pieces at the file-domain
    boundaries: ``(domain index, file extent, memory offset)`` triples."""
    for ext, mem_off in pieces:
        for di, piece in domains.split(ext):
            yield di, piece, mem_off + (piece.start - ext.start)


def _paint(buf: bytearray, base: int, incoming) -> int:
    """Copy every ``(file offset, block)`` of the *incoming* lists into
    *buf*, which starts at file offset *base*; returns the bytes covered."""
    covered = 0
    for lst in incoming:
        for off, block in lst:
            buf[off - base : off - base + len(block)] = block
            covered += len(block)
    return covered


# ----------------------------------------------------------------------
# Edge routers — the only code that differs between cb_aggregation="flat"
# and "node". Each posts its irecvs before its isends (like ROMIO) and
# returns the posted receive requests. Flat aggregators are ranks
# 0..naggs-1, so there a domain index *is* its aggregator's rank.
# ----------------------------------------------------------------------


def _flat_write_edges(mf: "MpiFile", send_lists: dict, reserve):
    """Flat write router (coroutine): a counts alltoall, then one message
    per (rank, aggregator) pair that has data. ``reserve()`` runs once the
    incoming edges are known, before the first irecv."""
    comm = mf.comm
    out_counts = [0] * comm.size
    for agg, lst in send_lists.items():
        out_counts[agg] = sum(len(b) for _, b in lst)
    in_counts = yield from collectives.alltoall(comm, out_counts)
    tag = collectives._next_tag(comm)
    reserve()
    recv_reqs = []
    for src in range(comm.size):
        if in_counts[src] > 0 and src != comm.rank:
            recv_reqs.append((yield from comm.irecv(src, tag, context=CTX_COLL)))
    for agg, lst in send_lists.items():
        if agg != comm.rank:
            yield from comm.isend(pack_object(lst), agg, tag, context=CTX_COLL)
    return recv_reqs


def _node_write_edges(mf: "MpiFile", nx: NodeExchange, aggs, mine, send_lists: dict, reserve):
    """Node write router (coroutine): stage remote-bound pieces with the
    node leader, then the fixed edge set of :class:`NodeExchange` — every
    edge is always sent, even empty, so no counts round is needed."""
    comm = mf.comm
    rank = comm.rank
    world = mf.env.world
    seq = nx.next_seq()
    tag = collectives._next_tag(comm)
    for di, agg in enumerate(aggs):
        lst = send_lists.get(di)
        if not lst or nx.routes_direct(rank, agg):
            continue
        nbytes = sum(len(b) for _, b in lst)
        yield from charge_staging_copy(world, rank, nbytes)
        alloc = world.memory.allocate(rank, nbytes, "topo.staging")
        nx.stage.deposit(("w", seq, di), lst, nbytes, allocation=alloc)
    yield from collectives.barrier(nx.node_comm)  # deposits visible to leader
    reserve()
    recv_reqs = []
    if mine is not None:
        for src in nx.senders_for(rank):
            recv_reqs.append((yield from comm.irecv(src, tag, context=CTX_COLL)))
    for di, agg in enumerate(aggs):  # direct edges
        if agg != rank and nx.routes_direct(rank, agg):
            yield from comm.isend(
                pack_object(send_lists.get(di, [])), agg, tag, context=CTX_COLL
            )
    if nx.is_leader and not nx.leader_down(nx.node):
        # One coalesced message per remote-node aggregator.
        for di, agg in enumerate(aggs):
            if nx.topo.node_of_rank(agg) == nx.node:
                continue
            staged = nx.stage.drain(("w", seq, di))
            nbytes = sum(len(b) for _, b in staged)
            if nbytes:
                yield from charge_staging_copy(world, rank, nbytes)
            yield from comm.isend(
                pack_object(coalesce_blocks(staged)), agg, tag, context=CTX_COLL
            )
            for stale in nx.stage.drain_allocs(("w", seq, di)):
                world.memory.free(stale)
            if world.trace is not None:
                world.trace.count("topo.drain.messages")
                world.trace.count("topo.drain.bytes", nbytes)
    return recv_reqs


def _flat_read_edges(mf: "MpiFile", request_lists: dict):
    """Flat read router (coroutine): the requests travel inside one
    alltoall, so nothing stays posted. Returns ``(reply tag, posted request
    receives, (requester, requests) pairs already at this aggregator)``."""
    comm = mf.comm
    out_reqs = [request_lists.get(agg, []) for agg in range(comm.size)]
    in_reqs = yield from collectives.alltoall(comm, out_reqs)
    tag = collectives._next_tag(comm)
    return tag, [], [(src, lst) for src, lst in enumerate(in_reqs) if lst]


def _node_read_edges(mf: "MpiFile", nx: NodeExchange, aggs, mine, request_lists: dict):
    """Node read router (coroutine): requests ride the write exchange's
    fixed edges — same-node ranks ask their aggregator directly, every
    other node's leader merges its members' requests into one message.
    A request message is a list of ``(requester, [(offset, length), ...])``
    pairs so the aggregator can reply to each requester directly; replies
    exist only for nonempty requests (the requester knows whether it
    asked, so the reply edge needs no counts round either)."""
    comm = mf.comm
    rank = comm.rank
    world = mf.env.world
    seq = nx.next_seq()
    tag = collectives._next_tag(comm)  # requests
    reply_tag = collectives._next_tag(comm)
    asks = {di: [(rank, lst)] for di, lst in request_lists.items()}
    for di, agg in enumerate(aggs):
        if di in asks and not nx.routes_direct(rank, agg):
            nx.stage.deposit(("r", seq, di), asks[di], 0)
    yield from collectives.barrier(nx.node_comm)
    req_reqs = []
    if mine is not None:
        for src in nx.senders_for(rank):
            req_reqs.append((yield from comm.irecv(src, tag, context=CTX_COLL)))
    for di, agg in enumerate(aggs):  # direct edges
        if agg != rank and nx.routes_direct(rank, agg):
            yield from comm.isend(
                pack_object(asks.get(di, [])), agg, tag, context=CTX_COLL
            )
    if nx.is_leader and not nx.leader_down(nx.node):
        for di, agg in enumerate(aggs):
            if nx.topo.node_of_rank(agg) == nx.node:
                continue
            merged = nx.stage.drain(("r", seq, di))
            yield from comm.isend(pack_object(merged), agg, tag, context=CTX_COLL)
            if world.trace is not None:
                world.trace.count("topo.drain.messages")
    return reply_tag, req_reqs, asks.get(mine, [])


# ----------------------------------------------------------------------
# the two-phase sequence
# ----------------------------------------------------------------------


def _assemble_and_write(mf: "MpiFile", window: Extent, incoming, what: str, tracer):
    """I/O phase for one aggregator extent (coroutine): paint the received
    blocks into a buffer the size of *window*, read-modify-write when they
    leave holes, and issue one large contiguous write."""
    chunk = bytearray(window.length)
    covered = _paint(chunk, window.start, incoming)
    mf._copy_cost(covered)
    if window.is_empty():
        return
    world, rank = mf.env.world, mf.env.rank
    with tracer.span("ocio.io", bytes=window.length):
        if covered < window.length:
            # Holes in the extent: read-modify-write preserves them.
            chunk = bytearray((yield from pfs_read(
                world, mf.client, rank, mf.pfs_file,
                what + ".read", window.start, window.length,
            )))
            _paint(chunk, window.start, incoming)
        yield from pfs_write(
            world, mf.client, rank, mf.pfs_file,
            what + ".write", window.start, bytes(chunk),
        )


def write_all(mf: "MpiFile", stream_pos: int, data: bytes):
    """Collective write of *data* at view stream position *stream_pos*
    (coroutine).

    With ``hints.cb_rounds_buffer`` the exchange + I/O phases repeat over
    successive slices of every file domain (ROMIO's ``cb_buffer_size``
    rounds): the aggregator's buffer is capped at that many bytes at the
    price of one synchronized exchange per round. The paper's memory
    analysis assumes the whole-domain buffer — one window, the allocation
    behind Fig. 6's OOM.
    """
    nx = yield from _get_node_exchange(mf)
    comm = mf.comm
    rank = comm.rank
    world = mf.env.world
    tracer = world.trace.tracer if world.trace is not None else NULL_TRACER
    t0 = world.engine.now
    cap = mf.hints.cb_rounds_buffer
    # counter/span name and PFS retry prefix: rounds mode keeps its own
    name = "ocio.write_all" + ("" if cap is None else "_rounds")
    what = "ocio.io" if cap is None else "ocio.rounds"
    pieces, domains, aggs, mine = yield from _setup(mf, nx, stream_pos, len(data))
    if domains is None:
        yield from collectives.barrier(comm)
        return
    my_domain = domains.domain(mine) if mine is not None else None

    # The aggregator's buffer: a whole file domain (the allocation that
    # OOMs at the paper's 48 GB point) once the exchange's edges are
    # known, or one round's worth held across all the rounds.
    allocs = []
    if my_domain is not None and cap is not None and my_domain.length:
        allocs.append(
            world.memory.allocate(
                rank, min(cap, my_domain.length), "ocio.round_buffer"
            )
        )

    def reserve():
        if my_domain is not None and cap is None:
            allocs.append(
                world.memory.allocate(rank, my_domain.length, "ocio.tempbuf")
            )

    longest = max(domains.domain(di).length for di in range(domains.naggs))
    span = cap if cap is not None else max(1, longest)
    for rnd in range(max(1, -(-longest // span))):

        def window(di: int) -> Extent:
            d = domains.domain(di)
            lo = min(d.stop, d.start + rnd * span)
            return Extent(lo, min(d.stop, lo + span))

        # ---- split local pieces by file domain (this window of it) ----
        send_lists: dict[int, list[tuple[int, bytes]]] = {}
        packed = 0
        for di, piece, mem_off in _domain_pieces(pieces, domains):
            part = piece
            if cap is not None:  # only what this round's window holds
                part = piece.intersect(window(di))
                if part.is_empty():
                    continue
                mem_off += part.start - piece.start
            block = data[mem_off : mem_off + part.stop - part.start]
            send_lists.setdefault(di, []).append((part.start, block))
            packed += len(block)
        mf._copy_cost(packed)  # pack into messages

        # ---- data exchange phase --------------------------------------
        if nx is None:
            recv_reqs = yield from _flat_write_edges(mf, send_lists, reserve)
        else:
            recv_reqs = yield from _node_write_edges(
                mf, nx, aggs, mine, send_lists, reserve
            )
        if nx is None or mine is not None:  # node: only aggregators wait
            with tracer.span(
                "ocio.exchange" if nx is None else "topo.exchange",
                peers=len(recv_reqs),
            ):
                yield from wait_all(recv_reqs)

        # ---- I/O phase ------------------------------------------------
        if mine is not None:
            incoming = [send_lists.get(mine, [])] + [
                unpack_object(req.payload) for req in recv_reqs
            ]
            yield from _assemble_and_write(mf, window(mine), incoming, what, tracer)

    for alloc in allocs:
        world.memory.free(alloc)
    if world.trace is not None:
        world.trace.count(name, len(data))
        world.trace.complete(name, t0, world.engine.now, bytes=len(data))
    yield from collectives.barrier(comm)


def _read_and_serve(mf: "MpiFile", domain: Extent, in_pairs, tag: int):
    """Aggregator side of a collective read (coroutine): read the whole
    file domain once and send each requester its blocks. Returns the
    blocks this rank asked of itself."""
    comm = mf.comm
    world = mf.env.world
    served_local: list[tuple[int, bytes]] = []
    if not in_pairs or domain.is_empty():
        return served_local
    alloc = world.memory.allocate(comm.rank, domain.length, "ocio.tempbuf")
    blob = yield from pfs_read(
        world, mf.client, mf.env.rank, mf.pfs_file,
        "ocio.read.domain", domain.start, domain.length,
    )
    for src, lst in in_pairs:
        blocks = [
            (off, blob[off - domain.start : off - domain.start + ln])
            for off, ln in lst
        ]
        mf._copy_cost(sum(ln for _, ln in lst))
        if src == comm.rank:
            served_local = blocks
        else:
            yield from comm.isend(pack_object(blocks), src, tag, context=CTX_COLL)
    world.memory.free(alloc)
    return served_local


def read_all(mf: "MpiFile", stream_pos: int, nbytes: int):
    """Collective read (coroutine); returns the view-stream bytes.

    The write sequence run backwards: requests travel to the aggregators,
    each aggregator reads its whole domain once (``cb_rounds_buffer`` does
    not apply) and scatters the requested blocks back.
    """
    nx = yield from _get_node_exchange(mf)
    comm = mf.comm
    rank = comm.rank
    world = mf.env.world
    t0 = world.engine.now
    pieces, domains, aggs, mine = yield from _setup(mf, nx, stream_pos, nbytes)
    if domains is None:
        return b""

    # ---- send my requests to the owning aggregators -----------------
    request_lists: dict[int, list[tuple[int, int]]] = {}
    for di, piece, _mem in _domain_pieces(pieces, domains):
        request_lists.setdefault(di, []).append((piece.start, piece.length))
    if nx is None:
        tag, req_reqs, in_pairs = yield from _flat_read_edges(mf, request_lists)
    else:
        tag, req_reqs, in_pairs = yield from _node_read_edges(
            mf, nx, aggs, mine, request_lists
        )
    reply_reqs = []  # one per aggregator this rank asked (nonempty only)
    for di in sorted(request_lists):
        if aggs[di] != rank:
            reply_reqs.append(
                (yield from comm.irecv(aggs[di], tag, context=CTX_COLL))
            )

    # ---- aggregators read their domains and serve --------------------
    by_offset: dict[int, bytes] = {}
    if mine is not None:
        yield from wait_all(req_reqs)
        for req in req_reqs:
            in_pairs.extend(unpack_object(req.payload))
        by_offset.update(
            (yield from _read_and_serve(mf, domains.domain(mine), in_pairs, tag))
        )

    # ---- assemble the local result ------------------------------------
    yield from wait_all(reply_reqs)
    for req in reply_reqs:
        by_offset.update(unpack_object(req.payload))
    out = bytearray(nbytes)
    for _di, piece, mem_off in _domain_pieces(pieces, domains):
        block = by_offset[piece.start]
        out[mem_off : mem_off + len(block)] = block
    mf._copy_cost(sum(e.length for e, _ in pieces))
    if world.trace is not None:
        world.trace.count("ocio.read_all", nbytes)
        world.trace.complete("ocio.read_all", t0, world.engine.now, bytes=nbytes)
    return bytes(out)
