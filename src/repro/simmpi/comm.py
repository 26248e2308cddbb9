"""Point-to-point messaging: send/recv/isend/irecv with MPI matching rules.

Matching follows MPI semantics: (context, source, tag) with ``ANY_SOURCE`` /
``ANY_TAG`` wildcards, non-overtaking order per (source, context, tag).
Transport uses the eager protocol for small messages (sender completes
locally; payload is buffered at the receiver) and rendezvous for large ones
(RTS/CTS handshake, data moves only once the receive is posted) — the
protocol split real MPIs use and the reason synchronized all-to-all phases
behave differently from TCIO's staggered one-sided traffic.
"""

from __future__ import annotations

import pickle
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, Optional, TYPE_CHECKING, TypeVar, Union

import numpy as np

from repro.sim.engine import active_process
from repro.sim.process import SimProcess
from repro.util.errors import MpiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.mpi import MpiWorld

ANY_SOURCE = -1
ANY_TAG = -1

#: match contexts: user point-to-point vs. library-internal collectives
CTX_PT2PT = 0
CTX_COLL = 1

_T = TypeVar("_T")
#: One key's queued entries in a ``Mailbox`` index: the entry itself while
#: it is the only one, a FIFO deque from the second on.
_Queued = Union[_T, Deque[_T]]


def wire_size(obj: Any) -> int:
    """What a message carrying *obj* costs on the simulated wire: the
    length of its pickle. The pickle only prices the message; the object
    itself is what travels. An object that does not pickle has no price
    and cannot be sent."""
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise MpiError(f"unsupported send payload type {type(obj).__name__}") from exc


@dataclass
class Status:
    """Receive-side completion info (MPI_Status)."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    count: int = 0


class _WaitGroup:
    """Shared completion counter: one thread handoff for N requests."""

    __slots__ = ("proc", "remaining")

    def __init__(self, proc: SimProcess, remaining: int):
        self.proc = proc
        self.remaining = remaining

    def one_done(self) -> None:
        """Count one completion; wake the waiter when all arrived."""
        self.remaining -= 1
        if self.remaining == 0:
            self.proc.wake()


class Request:
    """Handle for a nonblocking operation; complete via wait()/test()."""

    __slots__ = ("done", "payload", "status", "_waiter", "_group", "kind")

    def __init__(self, kind: str):
        self.kind = kind
        self.done = False
        self.payload: Any = None  # what the matched send carried
        self.status = Status()
        self._waiter: Optional[SimProcess] = None
        self._group: Optional[_WaitGroup] = None

    def _complete(self, payload: Any = None) -> None:
        if self.done:
            raise MpiError(f"{self.kind} request completed twice")
        self.done = True
        self.payload = payload
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.wake()
        if self._group is not None:
            group, self._group = self._group, None
            group.one_done()

    def wait(self):
        """Park until complete; returns the payload for receive requests.

        Coroutine: callers ``yield from req.wait()``. An interrupt thrown
        at the wait point (fail-stop notification) detaches the waiter so
        a late completion of the abandoned request cannot wake the process
        out of some *later* unrelated wait; a spurious wake re-parks.
        """
        if not self.done:
            proc = active_process()
            yield from proc.settle()
            while not self.done:
                if (self._waiter is not None and self._waiter is not proc) or (
                    self._group is not None
                ):
                    raise MpiError("two processes waiting on one request")
                self._waiter = proc
                try:
                    yield from proc.block(f"wait:{self.kind}")
                finally:
                    if self._waiter is proc:
                        self._waiter = None
        return self.payload


def wait_all(requests: list[Request]):
    """MPI_Waitall: a single park no matter how many requests.

    At P=1024 a two-phase exchange waits on ~1000 receives per rank;
    incomplete requests share a countdown group and the caller parks
    exactly once. Coroutine: ``yield from wait_all(reqs)``.
    """
    proc = active_process()
    yield from proc.settle()
    while True:
        pending = [r for r in requests if not r.done]
        if not pending:
            return
        group = _WaitGroup(proc, len(pending))
        for r in pending:
            if r._waiter is not None or r._group is not None:
                raise MpiError("request already being waited on")
            r._group = group
        try:
            yield from proc.block(f"waitall({len(pending)})")
        finally:
            # Detach on interrupt (fail-stop) so stragglers completing the
            # abandoned requests cannot wake this process elsewhere.
            for r in pending:
                if r._group is group:
                    r._group = None


@dataclass
class _Envelope:
    """A message either in flight or queued unexpected at the receiver."""

    src: int
    tag: int
    context: int
    payload: Any  # bytes, or the sender's object itself
    size: int  # wire bytes
    send_req: Optional[Request] = None
    rendezvous: bool = False  # only the RTS travelled; data follows the CTS
    consumed: bool = False  # matched to a receive (lazy queue removal)
    seq: int = 0


@dataclass
class _PostedRecv:
    src: int
    tag: int
    context: int
    req: Request
    matched: bool = False  # lazy queue removal
    seq: int = 0


class Mailbox:
    """Per-rank matching state.

    Exact (context, source, tag) lookups are O(1) via a keyed index —
    essential because a P=1024 two-phase exchange delivers ~P^2 messages
    into P posted receives per rank. A key with one queued entry holds the
    entry itself; a second entry promotes it to a FIFO deque (most keys
    of an exchange only ever see one). Wildcard posts/probes fall back to
    ordered scans of small side lists; consumed entries are removed
    lazily.
    """

    __slots__ = (
        "unexpected_by_key",
        "unexpected_all",
        "posted_by_key",
        "posted_wild",
        "_seq",
        "n_posted",
        "n_unexpected",
    )

    def __init__(self) -> None:
        self.unexpected_by_key: dict[tuple[int, int, int], _Queued[_Envelope]] = {}
        self.unexpected_all: Deque[_Envelope] = deque()
        self.posted_by_key: dict[tuple[int, int, int], _Queued[_PostedRecv]] = {}
        self.posted_wild: Deque[_PostedRecv] = deque()
        self._seq = 0
        self.n_posted = 0  # live (unmatched) posted receives
        self.n_unexpected = 0  # live (unconsumed) unexpected messages

    @property
    def queue_pressure(self) -> int:
        """Entries the matching engine must consider for a new arrival."""
        return self.n_posted + self.n_unexpected

    def next_seq(self) -> int:
        """Allocate the next posting/arrival sequence number."""
        self._seq += 1
        return self._seq

    # -- posted receives ------------------------------------------------
    def add_posted(self, post: _PostedRecv) -> None:
        """Queue a posted receive for matching."""
        post.seq = self.next_seq()
        self.n_posted += 1
        if post.src == ANY_SOURCE or post.tag == ANY_TAG:
            self.posted_wild.append(post)
        else:
            _enqueue(self.posted_by_key, (post.context, post.src, post.tag), post)

    def match_posted(self, env: _Envelope) -> Optional[_PostedRecv]:
        """Earliest-posted receive matching *env* (marked matched)."""
        key = (env.context, env.src, env.tag)
        # exact posts only ever leave from the head, and a drained key
        # leaves the index
        queued = self.posted_by_key.get(key)
        exact = queued[0] if type(queued) is deque else queued
        wild: Optional[_PostedRecv] = None
        wilds = self.posted_wild
        while wilds and wilds[0].matched:
            wilds.popleft()
        for post in wilds:
            if not post.matched and _matches(env, post):
                wild = post
                break
        chosen = None
        if exact is not None and (wild is None or exact.seq < wild.seq):
            chosen = exact
            if type(queued) is deque and len(queued) > 1:
                queued.popleft()
            else:
                del self.posted_by_key[key]
        elif wild is not None:
            chosen = wild
        if chosen is not None:
            chosen.matched = True
            self.n_posted -= 1
        return chosen

    # -- unexpected messages ---------------------------------------------
    def add_unexpected(self, env: _Envelope) -> None:
        """Queue an arrived-but-unmatched message."""
        env.seq = self.next_seq()
        self.n_unexpected += 1
        _enqueue(self.unexpected_by_key, (env.context, env.src, env.tag), env)
        self.unexpected_all.append(env)

    def match_unexpected(self, post: _PostedRecv) -> Optional[_Envelope]:
        """Earliest-arrived unexpected message matching *post* (consumed).

        The match is always the oldest live message of its key (a wildcard
        that matches a message matches every older one of the same key),
        so both queues shed consumed heads right here and a drained key
        leaves the index: a rank that only ever receives exactly, or only
        by wildcard, holds no message it already matched.
        """
        everyone = self.unexpected_all
        if post.src == ANY_SOURCE or post.tag == ANY_TAG:
            for env in everyone:
                if not env.consumed and _matches(env, post):
                    break
            else:
                return None
            key = (env.context, env.src, env.tag)
        else:
            key = (post.context, post.src, post.tag)
            queued = self.unexpected_by_key.get(key)
            if queued is None:
                return None
            env = queued[0] if type(queued) is deque else queued
        env.consumed = True
        self.n_unexpected -= 1
        same_key = self.unexpected_by_key[key]
        if type(same_key) is deque:
            while same_key and same_key[0].consumed:
                same_key.popleft()
        if type(same_key) is not deque or not same_key:  # a lone entry is env itself
            del self.unexpected_by_key[key]
        while everyone and everyone[0].consumed:
            everyone.popleft()
        return env


def _enqueue(index: dict, key: tuple[int, int, int], entry) -> None:
    """Queue *entry* last under *key*: stored as itself while it is the
    key's only entry, in a deque from the second one on."""
    queued = index.get(key)
    if queued is None:
        index[key] = entry
    elif type(queued) is deque:
        queued.append(entry)
    else:
        index[key] = deque((queued, entry))


def _matches(env: _Envelope, post: _PostedRecv) -> bool:
    if env.context != post.context:
        return False
    if post.src != ANY_SOURCE and post.src != env.src:
        return False
    if post.tag != ANY_TAG and post.tag != env.tag:
        return False
    return True


#: Entry states of an :class:`ExchangeSlot` source before its message lands.
_IDLE = object()  # neither posted for nor arrived
_POSTED = object()  # the receiver waits for it


class ExchangeSlot:
    """One rank's receive side of one ``alltoall``: P-1 messages, one wake.

    It stands in for the P-1 exact receives the request path posts, and
    moves the rank's mailbox counters exactly as they would move: a
    message delivered before the receiver posts counts as unexpected
    until the post, one delivered after it consumes a posted receive. The
    matching engine's cost reads those counters, so every arrival at this
    rank is charged what the request path charges. ``out[src]`` is
    ``_IDLE``, ``_POSTED`` or the sender's object itself: messages travel
    by reference.
    """

    __slots__ = ("world", "dst", "ranks", "mailbox", "out", "remaining", "rts", "waiter")

    def __init__(self, world: "MpiWorld", dst: int, ranks: tuple[int, ...]):
        self.world = world
        self.dst = dst  # the receiver's world rank
        self.ranks = ranks  # world rank of every communicator rank
        self.mailbox = world.mailbox(dst)
        self.out: list[Any] = [_IDLE] * len(ranks)
        self.remaining = len(ranks) - 1  # messages whose data has not landed
        #: src -> (object, wire bytes) of a rendezvous RTS that arrived
        #: before the receiver posted
        self.rts: dict[int, tuple[Any, int]] = {}
        self.waiter: Optional[SimProcess] = None

    def post(self, me: int) -> None:
        """The receiver (communicator rank *me*) posts for every source,
        in rank order, as the request path's irecv loop does: a dead
        source raises there, after the sources before it were posted."""
        world = self.world
        mailbox = self.mailbox
        out = self.out
        for src, peer in enumerate(self.ranks):
            if src == me:
                continue
            if world.dead_ranks:
                world.check_alive(self.dst, peer, "mpi.recv")
            if out[src] is not _IDLE:  # eager data that came early
                mailbox.n_unexpected -= 1
            elif src in self.rts:
                mailbox.n_unexpected -= 1
                obj, nbytes = self.rts.pop(src)
                world.rendezvous(peer, self.dst, nbytes, partial(self.land, src, obj))
            else:
                out[src] = _POSTED
                mailbox.n_posted += 1

    def deliver(self, src: int, obj: Any, nbytes: int) -> None:
        """*src*'s message, or its rendezvous RTS, passed the matcher."""
        mailbox = self.mailbox
        posted = self.out[src] is _POSTED
        if posted:
            mailbox.n_posted -= 1
        else:
            mailbox.n_unexpected += 1
        if nbytes <= self.world.fabric.spec.eager_limit:
            self.land(src, obj)
        elif posted:
            self.world.rendezvous(
                self.ranks[src], self.dst, nbytes, partial(self.land, src, obj)
            )
        else:
            self.rts[src] = (obj, nbytes)

    def land(self, src: int, obj: Any) -> None:
        """*src*'s data is here; the last one wakes the waiting receiver."""
        self.out[src] = obj
        self.remaining -= 1
        if not self.remaining and self.waiter is not None:
            self.waiter.wake()

    def wait(self, proc: SimProcess):
        """Park *proc* until every message landed (coroutine).

        As in :func:`wait_all`, an interrupt at the wait point (fail-stop
        notification) detaches the waiter, so a late landing cannot wake
        the process out of some later, unrelated wait.
        """
        while self.remaining:
            self.waiter = proc
            try:
                yield from proc.block(f"waitall({self.remaining})")
            finally:
                if self.waiter is proc:
                    self.waiter = None


class Communicator:
    """A group of ranks sharing a matching context.

    One Communicator object exists per (rank, group); it is only usable from
    that rank's simulated process (like ``MPI_COMM_WORLD`` seen from one
    rank).
    """

    def __init__(self, world: "MpiWorld", rank: int, comm_id: object = 0):
        self.world = world
        self._rank = rank
        self._comm_id = comm_id  # int or nested tuple (parent_id, dup_seq)
        self._coll_seq = 0  # per-rank collective sequence number
        self._dup_seq = 0

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self.world.nranks

    def world_rank(self, local_rank: int) -> int:
        """Translate a communicator-local rank to a world rank (identity
        for world-spanning communicators; overridden by sub-communicators)."""
        return local_rank

    def group_world_ranks(self) -> tuple[int, ...]:
        """World ranks of every member, in communicator rank order."""
        return tuple(range(self.world.nranks))

    # ------------------------------------------------------------------
    # ULFM-style fault tolerance (see repro.simmpi.ft)
    # ------------------------------------------------------------------
    @property
    def is_revoked(self) -> bool:
        """Whether :meth:`revoke` has been called on this communicator."""
        return self._comm_id in self.world.revoked

    def revoke(self) -> None:
        """ULFM ``MPI_Comm_revoke``: mark this communicator unusable.

        Local and immediate in the simulator (the world state is global):
        every subsequent point-to-point or collective entry on this comm
        id — from any member — raises :class:`CommRevoked`. Idempotent.
        """
        self.world.revoked.add(self._comm_id)

    def shrink(self):
        """ULFM ``MPI_Comm_shrink``: survivors' re-numbered communicator.

        Coroutine returning a fresh communicator over this comm's living
        members (see :func:`repro.simmpi.ft.shrink` for the protocol).
        """
        from repro.simmpi.ft import shrink

        return shrink(self)

    def agree(self, flags: int = 0):
        """ULFM ``MPI_Comm_agree``: fault-aware AND-agreement on *flags*.

        Coroutine returning ``(agreed_flags, comm)`` where *comm* is the
        survivor communicator the agreement completed on (see
        :func:`repro.simmpi.ft.agree`).
        """
        from repro.simmpi.ft import agree

        return agree(self, flags)

    def _check_revoked(self, op: str) -> None:
        if self.world.revoked and self._comm_id in self.world.revoked:
            from repro.util.errors import CommRevoked

            raise CommRevoked(self._comm_id, self._rank, op)

    def dup(self) -> "Communicator":
        """MPI_Comm_dup: a new matching context over the same group.

        Like the real call this is collective: every rank must dup in the
        same order, which is what makes the derived id — (parent id, dup
        sequence number) — agree across ranks without any communication.
        Library-internal traffic (MPI-IO, TCIO) can then never collide
        with application messages.
        """
        self._dup_seq += 1
        return Communicator(self.world, self._rank, (self._comm_id, self._dup_seq))

    # ------------------------------------------------------------------
    # sends
    # ------------------------------------------------------------------
    def isend(
        self,
        data: Any,
        dest: int,
        tag: int = 0,
        *,
        nbytes: Optional[int] = None,
        context: int = CTX_PT2PT,
    ):
        """Nonblocking send; coroutine returning the :class:`Request`:
        ``req = yield from comm.isend(...)``.

        A bytes-like *data* (``bytes``, ``bytearray``, ``memoryview``,
        ``ndarray``) is copied now and priced at its length. Any other
        object travels by reference: the matching receive completes with
        *data* itself, never a copy, priced at :func:`wire_size`. A caller
        that prices its own message passes *nbytes*; the message then
        travels as is, whatever its type, at that price. Either way the
        simulated cost is that of an ``isend`` of that many bytes.
        """
        yield from active_process().settle()
        if nbytes is None:
            if isinstance(data, np.ndarray):  # a C-order copy
                data = np.ascontiguousarray(data).tobytes()
            elif isinstance(data, (bytearray, memoryview)):
                data = bytes(data)
            nbytes = len(data) if isinstance(data, bytes) else wire_size(data)
        return self._post_send(data, nbytes, self.world_rank(dest), tag, context)

    def _post_send(self, payload: Any, nbytes: int, dest: int, tag: int, context: int) -> Request:
        """The body of :meth:`isend`, to world rank *dest*."""
        self._check_peer(dest)
        req = Request("isend")
        env = _Envelope(self._rank, tag, self._ctx(context), payload, nbytes, req)
        world = self.world
        if world.launch(self._rank, dest, nbytes, partial(world.deliver, dest, env)):
            # Eager: the sender completes locally; data lands at delivery.
            req._complete()
        else:
            # Rendezvous: the RTS travels now; data moves once matched.
            env.rendezvous = True
        return req

    def send(
        self,
        data: Any,
        dest: int,
        tag: int = 0,
        *,
        nbytes: Optional[int] = None,
        context: int = CTX_PT2PT,
    ):
        """Blocking send (completes when the send request does); *data*
        and *nbytes* as for :meth:`isend`."""
        req = yield from self.isend(data, dest, tag, nbytes=nbytes, context=context)
        yield from req.wait()

    # ------------------------------------------------------------------
    # receives
    # ------------------------------------------------------------------
    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *, context: int = CTX_PT2PT
    ):
        """Nonblocking receive; coroutine returning the :class:`Request`.

        ``req.wait()`` returns what the matched send carried: a bytes
        payload, or the sender's object itself. Results are sender-owned;
        read-only.
        """
        yield from active_process().settle()
        if source != ANY_SOURCE:
            source = self.world_rank(source)
        return self._post_recv(source, tag, context)

    def _post_recv(self, source: int, tag: int, context: int) -> Request:
        """The body of :meth:`irecv`, from world rank *source*."""
        self._check_revoked("mpi.recv")
        world = self.world
        if source != ANY_SOURCE and world.dead_ranks:
            world.check_alive(self._rank, source, "mpi.recv")
        req = Request("irecv")
        post = _PostedRecv(source, tag, self._ctx(context), req)
        mailbox = world.mailbox(self._rank)
        env = mailbox.match_unexpected(post)
        if env is None:
            mailbox.add_posted(post)
        else:
            world.consume(self._rank, env, req)
        return req

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        status: Optional[Status] = None,
        context: int = CTX_PT2PT,
    ):
        """Blocking receive; coroutine returning what the matched send
        carried (see :meth:`irecv`). Results are sender-owned; read-only.
        *status*, if given, receives the source, tag and wire bytes."""
        req = yield from self.irecv(source, tag, context=context)
        with self.world.trace.span("mpi.recv", source=source, tag=tag):
            payload = yield from req.wait()
        if status is not None:
            status.source = req.status.source
            status.tag = req.status.tag
            status.count = req.status.count
        return payload

    # ------------------------------------------------------------------
    # probing and combined send/recv
    # ------------------------------------------------------------------
    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *, context: int = CTX_PT2PT
    ) -> Optional[Status]:
        """Nonblocking probe: Status of a matching arrived message, or None.

        Does not consume the message (a later recv still matches it).
        """
        probe = _PostedRecv(src=source, tag=tag, context=self._ctx(context), req=Request("probe"))
        mailbox = self.world.mailbox(self._rank)
        if probe.src == ANY_SOURCE or probe.tag == ANY_TAG:
            candidates = (e for e in mailbox.unexpected_all if not e.consumed)
        else:
            key = (probe.context, probe.src, probe.tag)
            queued = mailbox.unexpected_by_key.get(key, ())
            if type(queued) is _Envelope:
                queued = (queued,)
            candidates = (e for e in queued if not e.consumed)
        for env in candidates:
            if _matches(env, probe):
                return Status(source=env.src, tag=env.tag, count=env.size)
        return None

    # ------------------------------------------------------------------
    def _ctx(self, context: int) -> object:
        # Fold the communicator id into the match context so dup()ed
        # communicators never match each other's traffic.
        return (self._comm_id, context)

    def _check_peer(self, rank: int) -> None:
        # *rank* is a world rank (a sub-communicator's world_rank already
        # refused peers outside its group)
        if not (0 <= rank < self.world.nranks):
            raise MpiError(f"peer rank {rank} outside communicator of size {self.size}")
        self._check_revoked("mpi.send")
        if self.world.dead_ranks:
            self.world.check_alive(self._rank, rank, "mpi.send")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Communicator rank={self._rank}/{self.size} id={self._comm_id}>"
