"""Collective operations built on simulated point-to-point messaging.

Algorithms follow the classic MPICH choices: dissemination barrier,
binomial-tree broadcast/reduce, recursive allgather, and the pairwise
(post-all-irecv, post-all-isend, waitall) all-to-all that the paper
describes for ROMIO's exchange phase. Every collective allocates a fresh
tag from the communicator's collective sequence so back-to-back collectives
never cross-match.

Every collective delivers by reference (one engine, one address space):
the receiver gets the very objects the sender passed, never a copy.
Results are sender-owned; read-only. The pickled size
(:func:`~repro.simmpi.comm.wire_size`) is what every message costs on the
simulated wire, unless the caller prices its messages itself.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.simmpi.comm import CTX_COLL, Communicator, Status, wire_size
from repro.sim.engine import active_process
from repro.sim.sync import SimBarrier
from repro.util.errors import MpiError


def _next_tag(comm: Communicator) -> int:
    comm._coll_seq += 1
    return comm._coll_seq


# ----------------------------------------------------------------------
# barrier
# ----------------------------------------------------------------------


def barrier(comm: Communicator):
    """Barrier with a dissemination-algorithm cost model (coroutine).

    Semantically a counter barrier (everyone leaves when the last rank
    arrives — one thread handoff per rank); each rank is charged the
    per-rank cost of ceil(log2 P) dissemination rounds of small messages,
    so the modeled time matches the message implementation without paying
    P*log(P) real context switches per call.
    """
    size = comm.size
    if size == 1:
        return
    comm._check_revoked("mpi.barrier")
    if comm.world.dead_ranks:
        # Fail-stop: a dead *member* means this barrier can never
        # complete; surface it at entry rather than parking forever.
        # The check is group-aware so a shrunken survivor communicator
        # (whose group excludes the dead) keeps working after a crash.
        dead_members = sorted(
            r for r in comm.group_world_ranks() if r in comm.world.dead_ranks
        )
        if dead_members:
            comm.world.check_alive(comm.rank, dead_members[0], "mpi.barrier")
    tag = _next_tag(comm)
    proc = active_process()
    rounds = max(1, (size - 1).bit_length())
    spec = comm.world.fabric.spec
    per_round = (
        spec.latency + 2.0 * spec.per_message_overhead + spec.match_overhead
    )
    proc.charge(rounds * per_round)
    yield from proc.settle()
    key = ("coll-barrier", comm._comm_id)
    bar = comm.world.shared.get(key)
    if bar is None:
        bar = SimBarrier(size, name=f"mpi-barrier-{comm._comm_id}")
        comm.world.shared[key] = bar
    yield from bar.wait()
    del tag


# ----------------------------------------------------------------------
# broadcast / allgather
# ----------------------------------------------------------------------


def bcast(comm: Communicator, obj: Any, root: int = 0):
    """Binomial-tree broadcast of a Python object; returns it on every rank.

    Coroutine: ``value = yield from bcast(...)``.
    """
    size, rank = comm.size, comm.rank
    if not (0 <= root < size):
        raise MpiError(f"bad bcast root {root}")
    if size == 1:
        return obj
    tag = _next_tag(comm)
    vrank = (rank - root) % size  # virtual rank with root at 0
    if vrank == 0:
        nbytes = wire_size(obj)
    else:
        # Receive from parent: clear the lowest set bit of vrank. Every
        # edge forwards the root's object at the root's price.
        parent_v = vrank & (vrank - 1)
        parent = (parent_v + root) % size
        status = Status()
        obj = yield from comm.recv(parent, tag, status=status, context=CTX_COLL)
        nbytes = status.count
    # Forward to children: vrank | (1 << k) for k above our lowest set bit.
    low = _lowest_set_bit_exclusive(vrank, size)
    mask = 1
    while mask < low:
        child_v = vrank | mask
        if child_v < size:
            yield from comm.isend(
                obj, (child_v + root) % size, tag, nbytes=nbytes, context=CTX_COLL
            )
        mask <<= 1
    return obj


def _lowest_set_bit_exclusive(vrank: int, size: int) -> int:
    """The range of child masks for binomial trees: below vrank's lowest set
    bit, or the full tree span for the (virtual) root."""
    if vrank == 0:
        span = 1
        while span < size:
            span <<= 1
        return span
    return vrank & (-vrank)


def allgather(comm: Communicator, obj: Any):
    """Bruck-style allgather: ceil(log2 P) rounds, no root hotspot.

    Round k ships each rank's current collection (which doubles every
    round) to ``rank - 2^k``; after the last round every rank holds all P
    contributions. This is the algorithm class real MPIs use — a flat
    gather-to-root would serialize P matches at one rank and misattribute
    a quadratic cost to every metadata exchange.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return [obj]
    tag = _next_tag(comm)
    collected: dict[int, Any] = {rank: obj}
    mask = 1
    round_no = 0
    while mask < size:
        dst = (rank - mask) % size
        src = (rank + mask) % size
        req = yield from comm.irecv(src, tag + round_no, context=CTX_COLL)
        # A copy: the receiver holds it, and this rank's dict keeps growing.
        yield from comm.isend(dict(collected), dst, tag + round_no, context=CTX_COLL)
        collected.update((yield from req.wait()))
        mask <<= 1
        round_no += 1
    comm._coll_seq += round_no
    if len(collected) != size:
        raise MpiError(f"allgather assembled {len(collected)}/{size} entries")
    return [collected[r] for r in range(size)]


def alltoall(comm: Communicator, send: Sequence[Any], sizes: Optional[Sequence[int]] = None):
    """Personalized all-to-all of Python objects.

    Posts every receive, then every send, then waits — the exact pattern
    the paper attributes to OCIO's exchange phase ("OCIO first issues
    MPI_Irecv to receive data from all processes, then issues
    MPI_Isend..."). The simulated task graph is that of P-1 ``irecv`` +
    P-1 ``isend`` + ``wait_all`` per rank, message for message: the same
    wire bytes, fabric reservations, matching costs and, above
    ``eager_limit``, RTS → CTS → data. The host side is not: the receives
    are one :class:`~repro.simmpi.comm.ExchangeSlot` per rank and the
    objects travel by reference (results are sender-owned; read-only).
    Each message costs :func:`~repro.simmpi.comm.wire_size` of its object,
    or ``sizes[dst]`` wire bytes when the caller gives *sizes* (an object
    that stands in for the form it is priced as).
    """
    size, rank = comm.size, comm.rank
    if len(send) != size:
        raise MpiError(f"alltoall needs {size} entries, got {len(send)}")
    tag = _next_tag(comm)
    proc = active_process()
    yield from proc.settle()
    if size == 1:
        return [send[0]]
    comm._check_revoked("mpi.recv")
    world = comm.world
    ranks = comm.group_world_ranks()
    context = comm._ctx(CTX_COLL)
    me = ranks[rank]
    mine = world.exchange_slot(me, context, tag, ranks)
    mine.post(rank)
    for dst, peer in enumerate(ranks):
        if dst != rank:
            obj = send[dst]
            nbytes = wire_size(obj) if sizes is None else sizes[dst]
            slot = world.exchange_slot(peer, context, tag, ranks)
            world.launch(me, peer, nbytes, partial(slot.deliver, rank, obj, nbytes))
    yield from mine.wait(proc)
    del world.exchange_slots[(me, context, tag)]
    out = mine.out
    out[rank] = send[rank]
    return out


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------


def reduce(
    comm: Communicator, value: Any, op: Callable[[Any, Any], Any], root: int = 0
):
    """Binomial-tree reduction with a commutative/associative *op*."""
    size, rank = comm.size, comm.rank
    if not (0 <= root < size):
        raise MpiError(f"bad reduce root {root}")
    tag = _next_tag(comm)
    vrank = (rank - root) % size
    acc = value
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            # Priced here, so a bytes-like value travels as itself too.
            yield from comm.send(acc, parent, tag, nbytes=wire_size(acc), context=CTX_COLL)
            return None
        child_v = vrank | mask
        if child_v < size:
            child = (child_v + root) % size
            received = yield from comm.recv(child, tag, context=CTX_COLL)
            acc = op(acc, received)
        mask <<= 1
    return acc if rank == root else None


def allreduce(comm: Communicator, value: Any, op: Callable[[Any, Any], Any]):
    """Reduce to rank 0 then broadcast the result (coroutine)."""
    reduced = yield from reduce(comm, value, op, root=0)
    return (yield from bcast(comm, reduced, root=0))

