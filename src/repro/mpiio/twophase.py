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

from itertools import islice
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.faults.retry import pfs_read, pfs_write
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
from repro.util.intervals import Extent, run_heads

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
        sizes = (gmax - gmin) // naggs + (np.arange(naggs) < (gmax - gmin) % naggs)
        bounds = gmin + np.concatenate(([0], np.cumsum(sizes)))
        if align > 1:
            # Ablation: snap interior boundaries up to lock-unit multiples.
            snapped = -(-(bounds[1:-1] - gmin) // align) * align + gmin
            bounds[1:-1] = np.minimum(snapped, gmax)
        self.bounds = bounds  # int64, naggs + 1 entries

    def domain(self, agg: int) -> Extent:
        """Aggregator *agg*'s file domain extent."""
        return Extent(int(self.bounds[agg]), int(self.bounds[agg + 1]))

    def windows(self, rnd: int, span: int) -> tuple[np.ndarray, np.ndarray]:
        """Round *rnd*'s ``[lo, hi)`` slice of every domain, *span* bytes
        long at most (empty once a domain is exhausted)."""
        lo = np.minimum(self.bounds[1:], self.bounds[:-1] + rnd * span)
        return lo, np.minimum(self.bounds[1:], lo + span)

    def split_arrays(self, starts: np.ndarray, lengths: np.ndarray, mems: np.ndarray):
        """Cut a whole access at the domain boundaries.

        *starts*, *lengths* and *mems* are :meth:`FileView.map_arrays`
        pieces (every length positive). Returns ``(owners, starts, lengths,
        mems)`` in the same stream order: one ``searchsorted`` assigns the
        domain of each piece's first and last byte, and only the pieces
        where the two differ — the straddlers — are cut, one part per
        nonempty domain they cross, each part carrying the buffer offset of
        its own first byte.
        """
        if len(starts) == 0:
            return starts, starts, lengths, mems
        stops = starts + lengths
        if starts.min() < self.gmin or stops.max() > self.gmax:
            raise MpiIoError(
                f"pieces outside aggregate region [{self.gmin}, {self.gmax})"
            )
        bounds = self.bounds
        first = bounds.searchsorted(starts, "right") - 1
        last = bounds.searchsorted(stops - 1, "right") - 1
        if (first == last).all():
            return first, starts, lengths, mems
        nparts = last - first + 1
        piece = np.repeat(np.arange(len(starts)), nparts)
        part = np.arange(len(piece)) - np.repeat(np.cumsum(nparts) - nparts, nparts)
        owners = first[piece] + part
        lo = np.maximum(starts[piece], bounds[owners])
        hi = np.minimum(stops[piece], bounds[owners + 1])
        keep = hi > lo  # a crossed domain may be empty (aligned bounds)
        lo, piece = lo[keep], piece[keep]
        return owners[keep], lo, hi[keep] - lo, mems[piece] + (lo - starts[piece])

    def split(self, extent: Extent) -> list[tuple[int, Extent]]:
        """Cut *extent* at domain boundaries: (aggregator, piece) pairs."""
        owners, starts, lengths, _ = self.split_arrays(
            np.array([extent.start]), np.array([extent.length]), np.zeros(1, np.int64)
        )
        return [
            (agg, Extent(start, start + length))
            for agg, start, length in zip(owners.tolist(), starts.tolist(), lengths.tolist())
        ]

    def owner_of(self, offset: int) -> int:
        """Aggregator whose domain contains file byte *offset*."""
        return self.split(Extent(offset, offset + 1))[0][0]


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
    """Common prologue (coroutine): the file domains, this rank's access
    cut at their boundaries (:meth:`FileDomains.split_arrays`), each
    domain's aggregator (comm ranks) and the index of the domain this rank
    aggregates (None for a non-aggregator). Domains are None when no rank
    accesses anything."""
    comm = mf.comm
    starts, lengths, mems = mf.view.map_arrays(stream_pos, nbytes)
    lo = int(starts[0]) if len(starts) else None
    hi = int(starts[-1] + lengths[-1]) if len(starts) else None
    ranges = yield from collectives.allgather(comm, (lo, hi))
    los = [lo_ for lo_, _ in ranges if lo_ is not None]
    his = [h for _, h in ranges if h is not None]
    if not los:
        return None, None, (), None
    gmin, gmax = min(los), max(his)
    naggs = mf.hints.cb_nodes or comm.size
    naggs = min(naggs, comm.size)
    align = mf.pfs_file.layout.stripe_size if mf.hints.cb_align_stripes else 1
    domains = FileDomains(gmin, gmax, naggs, align)
    aggs = range(naggs) if nx is None else spread_aggregators(nx.topo, naggs)
    mine = aggs.index(comm.rank) if comm.rank in aggs else None
    return domains, domains.split_arrays(starts, lengths, mems), aggs, mine


def _owner_runs(owners: np.ndarray, lengths: np.ndarray) -> list[tuple[int, int, int, int]]:
    """``(domain, first, stop, bytes)`` of every maximal run of consecutive
    pieces ``[first, stop)`` with one owner, in stream order. An access that
    ascends through the file has one run per domain it touches."""
    if len(owners) == 0:
        return []
    first = run_heads(owners[1:] != owners[:-1])
    return list(zip(
        owners[first].tolist(),
        first.tolist(),
        first[1:].tolist() + [len(owners)],
        np.add.reduceat(lengths, first).tolist(),
    ))


def _by_domain(runs, items: list) -> tuple[dict[int, list], dict[int, int]]:
    """Per-domain lists of the stream-ordered per-piece *items*, and each
    domain's byte total. Dict order is first appearance in the stream (it
    fixes the order of the exchange's isends), list order stream order."""
    lists: dict[int, list] = {}
    nbytes: dict[int, int] = {}
    for di, first, stop, size in runs:
        lists.setdefault(di, []).extend(items[first:stop])
        nbytes[di] = nbytes.get(di, 0) + size
    return lists, nbytes


def _pack_sends(split, win_lo: np.ndarray, win_hi: np.ndarray, data: bytes):
    """The write exchange's payloads for one round: the part of every piece
    of a split access that lies in its owner's window, as per-domain
    ``(file offset, block)`` lists with each domain's byte total."""
    owners, starts, lengths, mems = split
    lo = np.maximum(starts, win_lo[owners])
    hi = np.minimum(starts + lengths, win_hi[owners])
    held = hi > lo
    lo, sizes = lo[held], (hi - lo)[held]
    mem_lo = mems[held] + (lo - starts[held])
    blocks = [
        (start, data[m : m + n])
        for start, m, n in zip(lo.tolist(), mem_lo.tolist(), sizes.tolist())
    ]
    return _by_domain(_owner_runs(owners[held], sizes), blocks)


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


def _flat_write_edges(mf: "MpiFile", send_lists: dict, send_bytes: dict, reserve):
    """Flat write router (coroutine): a counts alltoall, then one message
    per (rank, aggregator) pair that has data. ``reserve()`` runs once the
    incoming edges are known, before the first irecv."""
    comm = mf.comm
    out_counts = [0] * comm.size
    for agg, nbytes in send_bytes.items():
        out_counts[agg] = nbytes
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


def _node_write_edges(
    mf: "MpiFile", nx: NodeExchange, aggs, mine, send_lists: dict, send_bytes: dict, reserve
):
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
        nbytes = send_bytes[di]
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
            nbytes = sum([len(b) for _, b in staged])
            if nbytes:
                yield from charge_staging_copy(world, rank, nbytes)
            yield from comm.isend(
                pack_object(coalesce_blocks(staged)), agg, tag, context=CTX_COLL
            )
            for stale in nx.stage.drain_allocs(("w", seq, di)):
                world.memory.free(stale)
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
    tracer = world.trace.tracer
    t0 = world.engine.now
    cap = mf.hints.cb_rounds_buffer
    # counter/span name and PFS retry prefix: rounds mode keeps its own
    name = "ocio.write_all" + ("" if cap is None else "_rounds")
    what = "ocio.io" if cap is None else "ocio.rounds"
    domains, split, aggs, mine = yield from _setup(mf, nx, stream_pos, len(data))
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

    longest = int(np.diff(domains.bounds).max())
    span = cap if cap is not None else max(1, longest)
    for rnd in range(max(1, -(-longest // span))):
        # ---- pack what this round's windows hold, per file domain ------
        win_lo, win_hi = domains.windows(rnd, span)
        send_lists, send_bytes = _pack_sends(split, win_lo, win_hi, data)
        mf._copy_cost(sum(send_bytes.values()))  # pack into messages

        # ---- data exchange phase --------------------------------------
        if nx is None:
            recv_reqs = yield from _flat_write_edges(mf, send_lists, send_bytes, reserve)
        else:
            recv_reqs = yield from _node_write_edges(
                mf, nx, aggs, mine, send_lists, send_bytes, reserve
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
            window = Extent(int(win_lo[mine]), int(win_hi[mine]))
            yield from _assemble_and_write(mf, window, incoming, what, tracer)

    for alloc in allocs:
        world.memory.free(alloc)
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
        mf._copy_cost(sum([ln for _, ln in lst]))
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
    domains, split, aggs, mine = yield from _setup(mf, nx, stream_pos, nbytes)
    if domains is None:
        return b""
    owners, starts, lengths, _ = split
    runs = _owner_runs(owners, lengths)

    # ---- send my requests to the owning aggregators -----------------
    request_lists, _ = _by_domain(runs, list(zip(starts.tolist(), lengths.tolist())))
    if nx is None:
        tag, req_reqs, in_pairs = yield from _flat_read_edges(mf, request_lists)
    else:
        tag, req_reqs, in_pairs = yield from _node_read_edges(
            mf, nx, aggs, mine, request_lists
        )
    # one reply per aggregator this rank asked (nonempty only)
    asked = [di for di in sorted(request_lists) if aggs[di] != rank]
    reply_reqs = []
    for di in asked:
        reply_reqs.append((yield from comm.irecv(aggs[di], tag, context=CTX_COLL)))

    # ---- aggregators read their domains and serve --------------------
    replies: dict[int, list[tuple[int, bytes]]] = {}
    if mine is not None:
        yield from wait_all(req_reqs)
        for req in req_reqs:
            in_pairs.extend(unpack_object(req.payload))
        replies[mine] = yield from _read_and_serve(
            mf, domains.domain(mine), in_pairs, tag
        )

    # ---- assemble the local result ------------------------------------
    yield from wait_all(reply_reqs)
    for di, req in zip(asked, reply_reqs):
        replies[di] = unpack_object(req.payload)
    # A domain's blocks come back in request order, and the pieces tile the
    # request buffer in stream order: the result is each run's blocks, run
    # after run.
    served = {di: iter([block for _, block in lst]) for di, lst in replies.items()}
    stream: list[bytes] = []
    for di, first, stop, _ in runs:
        stream.extend(islice(served[di], stop - first))
    mf._copy_cost(nbytes)
    world.trace.count("ocio.read_all", nbytes)
    world.trace.complete("ocio.read_all", t0, world.engine.now, bytes=nbytes)
    return b"".join(stream)
