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

Every exchange message is whole arrays and travels by reference: a write
message is *blocks* — ``(offsets, lengths, payload)``, int64 file offsets
and lengths in stream order and their bytes packed back to back — a read
request is ``(offsets, lengths)`` and a reply one payload. Each is charged
the pickle of the ``[(offset, bytes), ...]`` or ``[(offset, length), ...]``
list it stands for (:func:`_wire`, :func:`_ask_wire`), so the simulated
wire is that of a per-element exchange.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.faults.retry import pfs_read, pfs_write
from repro.simmpi import collectives
from repro.simmpi.comm import CTX_COLL, wait_all, wire_size
from repro.topo import (
    NodeTopology,
    StagingBuffer,
    charge_staging_copy,
    coalesce_runs,
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


_NO_PIECES = np.empty(0, np.int64)
#: The write message of an edge with nothing to carry.
_NO_BLOCKS = (_NO_PIECES, _NO_PIECES, b"")


def _slices(buf, starts: np.ndarray, lengths: np.ndarray):
    """``buf[s : s + n]`` for every start and length, in order (an
    iterator: no Python frame per piece)."""
    return map(buf.__getitem__, map(slice, starts.tolist(), (starts + lengths).tolist()))


def _wire_pairs(offsets: np.ndarray, lengths: np.ndarray, payload: bytes) -> list:
    """The ``[(file offset, block), ...]`` list that blocks stand for.

    Built only to be pickled for the wire size, then dropped. The blocks
    are ``bytes`` slices of *payload*, as they were slices of the caller's
    buffer when the list itself travelled: a 1-byte slice is CPython's
    shared single-byte object, which pickle writes once and then refers
    back to, so fresh copies would pickle longer.
    """
    starts = np.cumsum(lengths) - lengths
    return list(zip(offsets.tolist(), _slices(payload, starts, lengths)))


def _wire(offsets: np.ndarray, lengths: np.ndarray, payload: bytes) -> int:
    """Wire bytes of a write message or read reply (see :func:`_wire_pairs`)."""
    return wire_size(_wire_pairs(offsets, lengths, payload))


def _merged_wire(offsets: np.ndarray, lengths: np.ndarray, payload: bytes) -> int:
    """Wire bytes of a leader's coalesced message. Its blocks were built
    as fresh ``bytes`` (never a shared single-byte object), so they are
    priced as fresh copies — a repeated 1-byte block is written out again."""
    blocks = map(bytes, _slices(memoryview(payload), np.cumsum(lengths) - lengths, lengths))
    return wire_size(list(zip(offsets.tolist(), blocks)))


def _request_pairs(offsets: np.ndarray, lengths: np.ndarray) -> list:
    """The ``[(file offset, length), ...]`` list a read request stands for."""
    return list(zip(offsets.tolist(), lengths.tolist()))


def _ask_wire(asks: list) -> int:
    """Wire bytes of a node-router request message: ``(requester, offsets,
    lengths)`` triples, charged as ``[(requester, pairs), ...]``."""
    return wire_size([(r, _request_pairs(o, n)) for r, o, n in asks])


def _per_domain(owners: np.ndarray, *columns: np.ndarray) -> dict[int, tuple]:
    """Each domain's part of the per-piece *columns*, in stream order.

    Keyed by domain in order of first appearance in the stream, which
    fixes the order of the exchange's sends.
    """
    if not len(owners):
        return {}
    order = np.argsort(owners, kind="stable")
    grouped = owners[order]
    heads = run_heads(grouped[1:] != grouped[:-1])
    stops = heads[1:].tolist() + [len(order)]
    columns = tuple(c[order] for c in columns)
    firsts = sorted(zip(order[heads].tolist(), grouped[heads].tolist(), heads.tolist(), stops))
    return {di: tuple(c[a:b] for c in columns) for _, di, a, b in firsts}


def _pack_sends(split, win_lo: np.ndarray, win_hi: np.ndarray, data: bytes) -> dict:
    """The write exchange's messages for one round: the part of every piece
    of a split access that lies in its owner's window, as blocks per
    domain (:func:`_per_domain` order). Each payload is cut from *data*
    one run at a time — a run is consecutive pieces of one domain that
    are adjacent in the buffer."""
    owners, starts, lengths, mems = split
    lo = np.maximum(starts, win_lo[owners])
    hi = np.minimum(starts + lengths, win_hi[owners])
    held = hi > lo
    owners, lo, sizes = owners[held], lo[held], (hi - lo)[held]
    if not len(owners):
        return {}
    mem = mems[held] + (lo - starts[held])
    heads = run_heads((owners[1:] != owners[:-1]) | (mem[1:] != mem[:-1] + sizes[:-1]))
    runs = _per_domain(owners[heads], mem[heads], np.add.reduceat(sizes, heads))
    view = memoryview(data)
    payloads = {
        di: b"".join(_slices(view, run_mems, run_sizes))
        for di, (run_mems, run_sizes) in runs.items()
    }
    return {
        di: (offsets, lengths, payloads[di])
        for di, (offsets, lengths) in _per_domain(owners, lo, sizes).items()
    }


# ----------------------------------------------------------------------
# Edge routers — the only code that differs between cb_aggregation="flat"
# and "node". Each posts its irecvs before its isends (like ROMIO) and
# returns the posted receive requests. Flat aggregators are ranks
# 0..naggs-1, so there a domain index *is* its aggregator's rank.
# ----------------------------------------------------------------------


def _flat_write_edges(mf: "MpiFile", sends: dict, reserve):
    """Flat write router (coroutine): a counts alltoall, then one message
    per (rank, aggregator) pair that has data. ``reserve()`` runs once the
    incoming edges are known, before the first irecv."""
    comm = mf.comm
    out_counts = [0] * comm.size
    for agg, (_, _, payload) in sends.items():
        out_counts[agg] = len(payload)
    in_counts = yield from collectives.alltoall(comm, out_counts)
    tag = collectives._next_tag(comm)
    reserve()
    recv_reqs = []
    for src in range(comm.size):
        if in_counts[src] > 0 and src != comm.rank:
            recv_reqs.append((yield from comm.irecv(src, tag, context=CTX_COLL)))
    for agg, blocks in sends.items():
        if agg != comm.rank:
            yield from comm.isend(blocks, agg, tag, nbytes=_wire(*blocks), context=CTX_COLL)
    return recv_reqs


def _node_write_edges(mf: "MpiFile", nx: NodeExchange, aggs, mine, sends: dict, reserve):
    """Node write router (coroutine): stage remote-bound blocks with the
    node leader, then the fixed edge set of :class:`NodeExchange` — every
    edge is always sent, even empty, so no counts round is needed. The
    leader sends each remote aggregator its node's deposits merged into
    maximal contiguous blocks (:func:`~repro.topo.coalesce_runs`)."""
    comm = mf.comm
    rank = comm.rank
    world = mf.env.world
    seq = nx.next_seq()
    tag = collectives._next_tag(comm)
    for di, agg in enumerate(aggs):
        blocks = sends.get(di)
        if blocks is None or nx.routes_direct(rank, agg):
            continue
        nbytes = len(blocks[2])
        yield from charge_staging_copy(world, rank, nbytes)
        alloc = world.memory.allocate(rank, nbytes, "topo.staging")
        nx.stage.deposit(("w", seq, di), [blocks], nbytes, allocation=alloc)
    yield from collectives.barrier(nx.node_comm)  # deposits visible to leader
    reserve()
    recv_reqs = []
    if mine is not None:
        for src in nx.senders_for(rank):
            recv_reqs.append((yield from comm.irecv(src, tag, context=CTX_COLL)))
    for di, agg in enumerate(aggs):  # direct edges
        if agg != rank and nx.routes_direct(rank, agg):
            blocks = sends.get(di, _NO_BLOCKS)
            yield from comm.isend(blocks, agg, tag, nbytes=_wire(*blocks), context=CTX_COLL)
    if nx.is_leader and not nx.leader_down(nx.node):
        # One coalesced message per remote-node aggregator.
        for di, agg in enumerate(aggs):
            if nx.topo.node_of_rank(agg) == nx.node:
                continue
            staged = nx.stage.drain(("w", seq, di)) or [_NO_BLOCKS]
            offsets, lengths, payloads = zip(*staged)
            nbytes = sum([len(b) for b in payloads])
            if nbytes:
                yield from charge_staging_copy(world, rank, nbytes)
            merged = coalesce_runs(
                np.concatenate(offsets), np.concatenate(lengths), b"".join(payloads)
            )
            yield from comm.isend(merged, agg, tag, nbytes=_merged_wire(*merged), context=CTX_COLL)
            for stale in nx.stage.drain_allocs(("w", seq, di)):
                world.memory.free(stale)
            world.trace.count("topo.drain.messages")
            world.trace.count("topo.drain.bytes", nbytes)
    return recv_reqs


def _flat_read_edges(mf: "MpiFile", requests: dict):
    """Flat read router (coroutine): the requests travel inside one
    alltoall, so nothing stays posted. Returns ``(reply tag, posted request
    receives, (requester, offsets, lengths) triples already at this
    aggregator)``."""
    comm = mf.comm
    out = [requests.get(agg, (_NO_PIECES, _NO_PIECES)) for agg in range(comm.size)]
    sizes = [wire_size(_request_pairs(*req)) for req in out]
    in_reqs = yield from collectives.alltoall(comm, out, sizes)
    tag = collectives._next_tag(comm)
    return tag, [], [(src, *req) for src, req in enumerate(in_reqs) if len(req[0])]


def _node_read_edges(mf: "MpiFile", nx: NodeExchange, aggs, mine, requests: dict):
    """Node read router (coroutine): requests ride the write exchange's
    fixed edges — same-node ranks ask their aggregator directly, every
    other node's leader merges its members' requests into one message.
    A request message is a list of ``(requester, offsets, lengths)``
    triples so the aggregator can reply to each requester directly;
    replies exist only for nonempty requests (the requester knows whether
    it asked, so the reply edge needs no counts round either)."""
    comm = mf.comm
    rank = comm.rank
    world = mf.env.world
    seq = nx.next_seq()
    tag = collectives._next_tag(comm)  # requests
    reply_tag = collectives._next_tag(comm)
    asks = {di: [(rank, *req)] for di, req in requests.items()}
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
            ask = asks.get(di, [])
            yield from comm.isend(ask, agg, tag, nbytes=_ask_wire(ask), context=CTX_COLL)
    if nx.is_leader and not nx.leader_down(nx.node):
        for di, agg in enumerate(aggs):
            if nx.topo.node_of_rank(agg) == nx.node:
                continue
            merged = nx.stage.drain(("r", seq, di))
            yield from comm.isend(merged, agg, tag, nbytes=_ask_wire(merged), context=CTX_COLL)
            world.trace.count("topo.drain.messages")
    return reply_tag, req_reqs, list(asks.get(mine, []))


# ----------------------------------------------------------------------
# the two-phase sequence
# ----------------------------------------------------------------------


def _assemble_and_write(mf: "MpiFile", window: Extent, incoming: list, what: str, tracer):
    """I/O phase for one aggregator extent (coroutine): paint the received
    blocks into a buffer the size of *window* — over the file's bytes when
    they leave holes (read-modify-write preserves them) — and issue one
    large contiguous write."""
    covered = sum([len(payload) for _, _, payload in incoming])
    mf._copy_cost(covered)
    if window.is_empty():
        return
    world, rank = mf.env.world, mf.env.rank
    with tracer.span("ocio.io", bytes=window.length):
        if covered < window.length:
            chunk = bytearray((yield from pfs_read(
                world, mf.client, rank, mf.pfs_file,
                what + ".read", window.start, window.length,
            )))
        else:
            chunk = bytearray(window.length)
        for offsets, lengths, payload in incoming:
            view = memoryview(payload)
            pos = 0
            for off, n in zip((offsets - window.start).tolist(), lengths.tolist()):
                chunk[off : off + n] = view[pos : pos + n]
                pos += n
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
        sends = _pack_sends(split, win_lo, win_hi, data)
        # pack into messages
        mf._copy_cost(sum([len(payload) for _, _, payload in sends.values()]))

        # ---- data exchange phase --------------------------------------
        if nx is None:
            recv_reqs = yield from _flat_write_edges(mf, sends, reserve)
        else:
            recv_reqs = yield from _node_write_edges(mf, nx, aggs, mine, sends, reserve)
        if nx is None or mine is not None:  # node: only aggregators wait
            with tracer.span(
                "ocio.exchange" if nx is None else "topo.exchange",
                peers=len(recv_reqs),
            ):
                yield from wait_all(recv_reqs)

        # ---- I/O phase ------------------------------------------------
        if mine is not None:
            incoming = [sends.get(mine, _NO_BLOCKS)] + [req.payload for req in recv_reqs]
            window = Extent(int(win_lo[mine]), int(win_hi[mine]))
            yield from _assemble_and_write(mf, window, incoming, what, tracer)

    for alloc in allocs:
        world.memory.free(alloc)
    world.trace.count(name, len(data))
    world.trace.complete(name, t0, world.engine.now, bytes=len(data))
    yield from collectives.barrier(comm)


def _read_and_serve(mf: "MpiFile", domain: Extent, in_reqs: list, tag: int):
    """Aggregator side of a collective read (coroutine): read the whole
    file domain once and send each requester one payload, its blocks back
    to back in request order. Returns the payload this rank asked of
    itself."""
    comm = mf.comm
    world = mf.env.world
    served_local = b""
    if not in_reqs or domain.is_empty():
        return served_local
    alloc = world.memory.allocate(comm.rank, domain.length, "ocio.tempbuf")
    blob = memoryview((yield from pfs_read(
        world, mf.client, mf.env.rank, mf.pfs_file,
        "ocio.read.domain", domain.start, domain.length,
    )))
    for src, offsets, lengths in in_reqs:
        payload = b"".join(_slices(blob, offsets - domain.start, lengths))
        mf._copy_cost(len(payload))
        if src == comm.rank:
            served_local = payload
        else:
            wire = _wire(offsets, lengths, payload)
            yield from comm.isend(payload, src, tag, nbytes=wire, context=CTX_COLL)
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

    # ---- send my requests to the owning aggregators -----------------
    requests = _per_domain(owners, starts, lengths)
    if nx is None:
        tag, req_reqs, in_reqs = yield from _flat_read_edges(mf, requests)
    else:
        tag, req_reqs, in_reqs = yield from _node_read_edges(mf, nx, aggs, mine, requests)
    # one reply per aggregator this rank asked (nonempty only)
    asked = [di for di in sorted(requests) if aggs[di] != rank]
    reply_reqs = []
    for di in asked:
        reply_reqs.append((yield from comm.irecv(aggs[di], tag, context=CTX_COLL)))

    # ---- aggregators read their domains and serve --------------------
    replies: dict[int, bytes] = {}
    if mine is not None:
        yield from wait_all(req_reqs)
        for req in req_reqs:
            in_reqs.extend(req.payload)
        replies[mine] = yield from _read_and_serve(mf, domains.domain(mine), in_reqs, tag)

    # ---- assemble the local result ------------------------------------
    yield from wait_all(reply_reqs)
    for di, req in zip(asked, reply_reqs):
        replies[di] = req.payload
    # A domain's reply holds its pieces in request order, and the pieces
    # tile the request buffer in stream order: the result is each run of
    # one domain's pieces cut from the front of that domain's reply, run
    # after run.
    stream: list[memoryview] = []
    if len(owners):
        heads = run_heads(owners[1:] != owners[:-1])
        taken = dict.fromkeys(replies, 0)
        for di, size in zip(owners[heads].tolist(), np.add.reduceat(lengths, heads).tolist()):
            stream.append(memoryview(replies[di])[taken[di] : taken[di] + size])
            taken[di] += size
    mf._copy_cost(nbytes)
    world.trace.count("ocio.read_all", nbytes)
    world.trace.complete("ocio.read_all", t0, world.engine.now, bytes=nbytes)
    return b"".join(stream)
