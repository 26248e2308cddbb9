"""Delegate service loops and client sessions (the ViPIOS-style core).

A *delegate* rank runs :func:`serve`: a persistent coroutine that drains
request arrivals into a bounded queue (admission control), applies queued
requests against one shared :class:`~repro.tcio.file.TcioFile` opened
collectively over the delegate sub-communicator, and enters the
collective durability points (open/flush/close) once every client it
serves has requested them and its queue has drained. Writes are
acknowledged at *admission* — the data reaches the file system through
TCIO's epoched write-behind at the next flush/close, which is why a
crashed delegate is recoverable by ``kill_ranks`` + journal replay.

A *client* rank runs :func:`run_clients`: it plays its logical clients'
trace requests in ``seq`` order, submitting each over the world
communicator's RPC endpoint and measuring per-request latency on the
virtual clock. ``BUSY`` rejections back off deterministically and
resubmit; barrier verbs (open/flush/close) are batched per rank — all of
its clients' requests go out before the first reply is awaited, since a
delegate completes a barrier only once *every* client subscribed.

With ``IoServerConfig.failover`` armed, a delegate death no longer
aborts the session. The shared TCIO handle runs with ``ft=True`` (the
survivors shrink and complete the flush); a surviving delegate adopts
the dead delegate's clients into its expected set and answers their
stale barrier subscriptions with catch-up ``DONE``\\ s via per-verb round
counters; the dead delegate's clients redirect to the ring-next alive
delegate (:func:`~repro.ioserver.protocol.failover_delegate`) and replay
every acknowledged-but-uncommitted write there — the write-behind data
only the dead delegate's volatile queue held. The real ``tcio_close``
is deferred to service exit so late-replayed writes still have an open
handle to land in. See ``docs/io-server.md``.

Crash instrumentation mirrors TCIO's: the service loop announces the
named steps ``srv-admit`` / ``srv-apply`` / ``srv-flush`` / ``srv-close``
through :meth:`MpiWorld.crash_point`, so the crash-differential matrix
can kill a delegate at every protocol position (``tests/crash/``).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.ioserver.protocol import (
    ADMIT,
    BUSY,
    DATA,
    DONE,
    PEER_DONE,
    SHUTDOWN,
    IoServerConfig,
    Placement,
    adopted_clients,
    failover_delegate,
)
from repro.ioserver.trace import WorkloadTrace, payload_bytes
from repro.sim.api import run_coroutine
from repro.simmpi.comm import ANY_SOURCE, pack_object, unpack_object, wait_all
from repro.simmpi.rpc import RpcEndpoint, RpcEnvelope
from repro.tcio import TCIO_RDONLY, TCIO_WRONLY, TcioFile
from repro.util.errors import IoServerError, RankUnreachable, ServerBusy
from repro.util.rng import derive_seed

#: Service-loop crash-point names, in protocol order (``docs/io-server.md``).
SERVER_STEPS = ("srv-admit", "srv-apply", "srv-flush", "srv-close")

#: Request verbs that park the client until a collective completes.
BARRIER_OPS = ("open", "flush", "close")

#: First client backoff after a ``BUSY`` reply, in simulated seconds; it
#: doubles per attempt (capped at the attempt-6 tier), jittered per request.
BACKOFF_BASE = 25e-6


def _crash_point(env, step: str):
    """Named crash hook (one test when unfaulted); coroutine like TCIO's."""
    if env.world.faults is not None:
        yield from run_coroutine(env.world.crash_point(step, env.rank))


# ----------------------------------------------------------------------
# the delegate side
# ----------------------------------------------------------------------


class _ServerState:
    """One delegate's mutable session state."""

    def __init__(self, clients: tuple[int, ...], depth: int):
        self.expected = frozenset(clients)
        self.depth = depth
        self.queue: deque = deque()  # (src_rank, envelope), admission order
        self.waiters: dict[str, dict[int, int]] = {}  # verb -> client -> src
        self.rounds: dict[str, int] = {}  # verb -> completed collectives
        self.open_mode: str = ""
        self.file_name: str = ""
        self.done: set[int] = set()
        self.fh: Optional[TcioFile] = None
        self.stats = {
            "admitted": 0,
            "rejected": 0,
            "applied_writes": 0,
            "applied_fetches": 0,
            "written_bytes": 0,
            "max_depth": 0,
            "epochs": 0,
            "committed_epoch": 0,
            "adopted_clients": 0,
            "catchup_dones": 0,
        }


class _FtServer:
    """The failover half of one delegate's service loop.

    Wraps every park in a retry that joins a pending survivor recovery
    (see :meth:`TcioFile.ft_join_recovery`) instead of aborting, and
    owns the adoption bookkeeping: when a peer delegate dies, the ranks
    it served redirect here, and this delegate takes over their logical
    clients.
    """

    def __init__(self, env, state: _ServerState, placement: Placement, hub):
        self.env = env
        self.state = state
        self.placement = placement
        self.hub = hub
        self.known_dead: set[int] = set()
        #: Peer delegates that announced a drained client set.
        self.peers_done: set[int] = set()
        #: Logical clients some peer saw shut down — they never redirect.
        self.finished: set[int] = set()
        self.announced = False

    def _dead_delegates(self) -> set[int]:
        return set(self.placement.delegates) & self.env.world.dead_ranks

    def peers_finished(self) -> bool:
        """Every peer delegate is drained or dead — safe to exit."""
        return all(
            peer in self.peers_done or peer in self.env.world.dead_ranks
            for peer in self.placement.delegates
            if peer != self.env.rank
        )

    def announce(self, rpc: RpcEndpoint):
        """Tell every alive peer this delegate's clients all shut down
        (coroutine, idempotent).

        Sent exactly once, when the expected set first drains. Peers use
        it two ways: as their drain-barrier vote, and — should this
        delegate die later, e.g. inside the deferred close — as proof
        that its clients are finished and must not be adopted.
        """
        if self.announced:
            return
        self.announced = True
        payload = pack_object(
            RpcEnvelope(-1, -1, PEER_DONE, (tuple(sorted(self.state.done)),))
        )
        reqs = []
        for peer in self.placement.delegates:
            if peer == self.env.rank:
                continue
            while peer not in self.env.world.dead_ranks:
                try:
                    reqs.append(
                        (
                            yield from rpc.comm.isend(
                                payload, peer, rpc.tag_request
                            )
                        )
                    )
                    break
                except RankUnreachable:
                    yield from self.recover()
        yield from self.wait_many(reqs)

    def wait(self, req):
        """``req.wait()`` that survives fail-stop interrupts (coroutine)."""
        while True:
            try:
                return (yield from req.wait())
            except RankUnreachable:
                yield from self.recover()

    def wait_many(self, reqs):
        """``wait_all`` that survives fail-stop interrupts (coroutine)."""
        while True:
            try:
                return (yield from wait_all(reqs))
            except RankUnreachable:
                yield from self.recover()

    def recover(self):
        """Join the survivor-flush collective, then adopt (coroutine)."""
        if self.state.fh is not None:
            yield from self.state.fh.ft_join_recovery()
        self.adopt()

    def adopt(self) -> None:
        """Fold newly-redirected logical clients into the expected set."""
        dead = self._dead_delegates()
        if dead <= self.known_dead:
            return
        self.known_dead |= dead
        mine = adopted_clients(self.placement, self.env.rank, dead)
        # A client its (announced-then-died) delegate saw shut down has
        # completed its whole session; it will never redirect here, and
        # expecting it would block the drain barrier forever.
        new = mine - self.finished - set(self.state.expected)
        if new:
            self.state.expected = frozenset(self.state.expected | new)
            self.state.stats["adopted_clients"] += len(new)
            if self.hub is not None:
                self.hub.count("ioserver.failover.adopted", len(new))


def _recv_request(rpc: RpcEndpoint, ctx: Optional[_FtServer], source=ANY_SOURCE):
    """One request arrival -> ``(source_rank, envelope)`` (coroutine).

    In failover mode the *same* receive request is re-waited across
    fail-stop interrupts — abandoning a matched receive would consume
    the message without delivering it anywhere.
    """
    if ctx is None:
        return (yield from rpc.recv_request(source))
    while True:
        try:
            req = yield from rpc.comm.irecv(source, rpc.tag_request)
            break
        except RankUnreachable:
            yield from ctx.recover()
    payload = yield from ctx.wait(req)
    return req.status.source, unpack_object(payload)


def _reply(rpc: RpcEndpoint, ctx: Optional[_FtServer], dest: int, payload):
    """Send one reply, surviving fail-stop interrupts (coroutine).

    ``isend`` schedules delivery before its first interruptible point,
    so re-waiting the same send request never duplicates the message.
    """
    if ctx is None:
        yield from rpc.send_reply(dest, payload)
        return
    while True:
        try:
            req = yield from rpc.comm.isend(
                pack_object(payload), dest, rpc.tag_reply
            )
            break
        except RankUnreachable:
            yield from ctx.recover()
    yield from ctx.wait(req)


def serve(
    env, sub_comm, config: IoServerConfig, tcio_config, clients, file_name,
    placement: Optional[Placement] = None,
):
    """One delegate's persistent service loop (coroutine).

    ``sub_comm`` is the delegate sub-communicator (collective I/O runs
    over it); ``clients`` the logical client ids this delegate serves;
    ``file_name`` the shared file every collective open targets;
    ``placement`` the session placement (required in failover mode, for
    the adoption computation). Returns the delegate's stats dict once
    every client it serves — adopted ones included — has shut down.
    """
    if not clients:
        raise IoServerError(f"delegate rank {env.rank} serves no clients")
    if config.failover and placement is None:
        raise IoServerError("failover mode needs the session placement")
    rpc = RpcEndpoint(env.comm)
    state = _ServerState(clients, config.queue_depth)
    state.file_name = file_name
    hub = env.world.trace
    ctx = _FtServer(env, state, placement, hub) if config.failover else None
    while True:
        if ctx is None:
            if state.done >= state.expected:
                break
        else:
            # Fold in any newly-dead peer's clients *before* judging the
            # exit condition: a delegate that stops listening while a
            # redirected client is still in flight strands it.
            ctx.adopt()
            if state.done >= state.expected:
                yield from ctx.announce(rpc)
                if ctx.peers_finished():
                    break
        progressed = False
        while True:  # drain every arrived request (cheap admission pass)
            status = rpc.poll()
            if status is None:
                break
            src, envelope = yield from _recv_request(rpc, ctx, status.source)
            yield from _on_arrival(env, rpc, state, envelope, src, hub, ctx)
            progressed = True
        if state.queue:
            src, envelope = state.queue.popleft()
            try:
                yield from _crash_point(env, "srv-apply")
                yield from _apply(env, rpc, state, envelope, src, hub, ctx)
            except RankUnreachable:
                if ctx is None:
                    raise
                # Half-applied requests are idempotent (same bytes, same
                # offsets): put the envelope back and re-apply after the
                # survivor recovery.
                state.queue.appendleft((src, envelope))
                yield from ctx.recover()
            continue
        verb = _ready_collective(state)
        if verb is not None:
            yield from _run_collective(
                env, rpc, state, verb, sub_comm, config, tcio_config, hub, ctx
            )
            continue
        if progressed:
            continue
        # Idle: park until the next request arrives.
        src, envelope = yield from _recv_request(rpc, ctx)
        yield from _on_arrival(env, rpc, state, envelope, src, hub, ctx)
    if state.fh is not None:
        if ctx is None:
            state.fh.abort()
            raise IoServerError(
                f"delegate rank {env.rank}: clients shut down with the file open"
            )
        # Failover mode defers the real close to service exit so writes
        # replayed after the close *verb* still have a handle to land in.
        fh, state.fh = state.fh, None
        yield from fh.close()
        state.stats["committed_epoch"] = max(
            state.stats["committed_epoch"], fh.committed_epoch
        )
    return state.stats


def _on_arrival(
    env, rpc: RpcEndpoint, state: _ServerState, envelope, src, hub,
    ctx: Optional[_FtServer] = None,
):
    """Admission control: queue, subscribe, or reject one arrival."""
    if ctx is not None and envelope.op == PEER_DONE:
        ctx.peers_done.add(src)
        ctx.finished |= set(envelope.args[0])
        return
    if ctx is not None and envelope.client not in state.expected:
        # First contact from a redirected client: adopt before judging.
        ctx.adopt()
        if envelope.client not in state.expected:
            raise IoServerError(
                f"delegate rank {env.rank}: request from client "
                f"{envelope.client} it neither serves nor adopted"
            )
    op = envelope.op
    if op in BARRIER_OPS:
        if ctx is not None and envelope.args[-1] <= state.rounds.get(op, 0):
            # A late subscription to a collective round that already
            # completed (an adopted client catching up after redirect):
            # its global effect is in place, acknowledge immediately.
            state.stats["catchup_dones"] += 1
            if hub is not None:
                hub.count("ioserver.failover.catchup_dones", 1)
            yield from _reply(rpc, ctx, src, (DONE,))
            return
        state.waiters.setdefault(op, {})[envelope.client] = src
        if op == "open":
            state.open_mode = envelope.args[0]
        return
    if op == SHUTDOWN:
        state.done.add(envelope.client)
        yield from _reply(rpc, ctx, src, (DONE,))
        return
    if op not in ("write", "fetch"):
        raise IoServerError(f"delegate rank {env.rank}: unknown request {op!r}")
    if len(state.queue) >= state.depth:
        # Backpressure: reject without dequeuing anything; the client
        # sees a deterministic retryable ServerBusy signal.
        state.stats["rejected"] += 1
        if hub is not None:
            hub.count("ioserver.rejected")
        yield from _reply(rpc, ctx, src, (BUSY, len(state.queue)))
        return
    yield from _crash_point(env, "srv-admit")
    state.queue.append((src, envelope))
    depth = len(state.queue)
    state.stats["admitted"] += 1
    state.stats["max_depth"] = max(state.stats["max_depth"], depth)
    if hub is not None:
        hub.count("ioserver.admitted")
        hub.registry.histogram("ioserver.queue.depth").observe(depth)
        gauge = hub.registry.gauge("ioserver.queue.highwater")
        gauge.set(max(gauge.value, depth))
    if op == "write":
        # The write-behind ack: enqueued, not yet durable.
        yield from _reply(rpc, ctx, src, (ADMIT,))


def _apply(
    env, rpc: RpcEndpoint, state: _ServerState, envelope, src, hub,
    ctx: Optional[_FtServer] = None,
):
    """Apply one admitted request against the shared TCIO handle."""
    if state.fh is None:
        raise IoServerError(
            f"delegate rank {env.rank}: {envelope.op} before the collective open"
        )
    if envelope.op == "write":
        offset, payload = envelope.args
        span = hub.span("ioserver.apply", op="write", bytes=len(payload)) if hub else None
        if span is not None:
            with span:
                yield from state.fh.write_at(offset, payload)
        else:
            yield from state.fh.write_at(offset, payload)
        state.stats["applied_writes"] += 1
        state.stats["written_bytes"] += len(payload)
        if hub is not None:
            hub.count("ioserver.bytes.written", len(payload))
    else:  # fetch
        offset, nbytes = envelope.args
        data = yield from state.fh.read_now(offset, nbytes)
        state.stats["applied_fetches"] += 1
        if hub is not None:
            hub.count("ioserver.bytes.read", len(data))
        yield from _reply(rpc, ctx, src, (DATA, data))


def _ready_collective(state: _ServerState) -> Optional[str]:
    """The collective verb every client subscribed to, if any.

    Only called with an empty queue, so "queue drained" — the condition
    that makes flush-before-apply reordering impossible — always holds.
    """
    for verb in BARRIER_OPS:
        if set(state.waiters.get(verb, ())) == state.expected:
            return verb
    return None


def _run_collective(
    env, rpc: RpcEndpoint, state: _ServerState, verb, sub_comm, config,
    tcio_config, hub, ctx: Optional[_FtServer] = None,
):
    """Enter one collective point over the delegate sub-communicator."""
    if verb == "open":
        if state.fh is not None:
            if ctx is None:
                raise IoServerError("open while a handle is already open")
            # Failover defers the close verb's real close; a re-open (a
            # trace's read phase) settles it here.
            fh, state.fh = state.fh, None
            yield from fh.close()
        mode = TCIO_WRONLY if state.open_mode == "w" else TCIO_RDONLY
        state.fh = yield from TcioFile.open(
            env, state.file_name, mode, tcio_config, comm=sub_comm
        )
    elif verb == "flush":
        yield from _crash_point(env, "srv-flush")
        span = hub.span("ioserver.epoch", rank=env.rank) if hub else None
        if span is not None:
            with span:
                yield from state.fh.flush()
        else:
            yield from state.fh.flush()
        state.stats["epochs"] += 1
        state.stats["committed_epoch"] = max(
            state.stats["committed_epoch"], state.fh.committed_epoch
        )
        if hub is not None:
            hub.registry.gauge("ioserver.epoch.committed").set(
                state.fh.committed_epoch
            )
            hub.registry.histogram("ioserver.write_behind.segments").observe(
                state.fh.pending_write_behind
            )
    else:  # close
        yield from _crash_point(env, "srv-close")
        if ctx is not None:
            # Durability now, the real (collective) close at service
            # exit: replayed writes arriving after a failover may still
            # need the open handle.
            yield from state.fh.flush()
            state.stats["committed_epoch"] = max(
                state.stats["committed_epoch"], state.fh.committed_epoch
            )
        else:
            state.stats["committed_epoch"] = max(
                state.stats["committed_epoch"], state.fh.committed_epoch
            )
            yield from state.fh.close()
            state.fh = None
    state.rounds[verb] = state.rounds.get(verb, 0) + 1
    waiters = state.waiters.pop(verb)
    if ctx is None:
        for client in sorted(waiters):
            yield from rpc.send_reply(waiters[client], (DONE,))
        return
    # Schedule every DONE before the first interruptible point (isend
    # delivers regardless), so a fail-stop interrupt mid-batch cannot
    # split the round's acknowledgements.
    reqs = []
    for client in sorted(waiters):
        while True:
            try:
                reqs.append(
                    (
                        yield from rpc.comm.isend(
                            pack_object((DONE,)), waiters[client], rpc.tag_reply
                        )
                    )
                )
                break
            except RankUnreachable:
                yield from ctx.recover()
    yield from ctx.wait_many(reqs)


# ----------------------------------------------------------------------
# the client side
# ----------------------------------------------------------------------


def _submit(env, rpc: RpcEndpoint, delegate: int, envelope, config, seed, hub):
    """Submit with deterministic backoff-and-retry on BUSY (coroutine)."""
    attempt = 0
    while True:
        reply = yield from rpc.call(delegate, envelope)
        if reply[0] != BUSY:
            return reply
        if attempt >= config.max_retries:
            raise ServerBusy(delegate, envelope.client, envelope.op, reply[1])
        if hub is not None:
            hub.count("ioserver.retries")
        # Exponential backoff with seeded jitter, all on the virtual clock.
        jitter = (
            derive_seed(seed, "busy", envelope.client, envelope.seq, attempt)
            % 1000
        ) / 1000.0
        backoff = BACKOFF_BASE * (2 ** min(attempt, 6)) * (1.0 + jitter)
        yield from env.process.sleep(backoff)
        attempt += 1


class _DelegateLost(Exception):
    """Internal: the client's current delegate died; redirect and retry."""


class _ClientSession:
    """One client rank's failover-aware submission state."""

    def __init__(self, env, config: IoServerConfig, placement: Placement,
                 trace: WorkloadTrace, hub):
        self.env = env
        self.comm = env.comm
        self.config = config
        self.placement = placement
        self.trace = trace
        self.hub = hub
        self.rpc = RpcEndpoint(env.comm)
        self.delegate = placement.delegate_of_rank[env.rank]
        #: (client, verb) -> collective rounds this client completed.
        self.rounds: dict[tuple[int, str], int] = {}
        #: Acked-but-uncommitted writes: (client, seq, offset, nbytes).
        self.replay: list[tuple[int, int, int, int]] = []
        self.redirects = 0

    def _delegate_dead(self) -> bool:
        return self.delegate in self.env.world.dead_ranks

    # -- interrupt-tolerant messaging primitives ------------------------

    def _await(self, req):
        """Re-wait the same request across fail-stop interrupts."""
        while True:
            try:
                return (yield from req.wait())
            except RankUnreachable:
                if self._delegate_dead():
                    raise _DelegateLost() from None
                # Some other rank died; this request's peer is alive.

    def _await_many(self, reqs):
        while True:
            try:
                return (yield from wait_all(reqs))
            except RankUnreachable:
                if self._delegate_dead():
                    raise _DelegateLost() from None

    def _isend(self, envelope):
        """isend to the current delegate; nothing is on the wire if it
        raises, so callers may retry freely (coroutine)."""
        while True:
            try:
                return (
                    yield from self.comm.isend(
                        pack_object(envelope), self.delegate, self.rpc.tag_request
                    )
                )
            except RankUnreachable:
                if self._delegate_dead():
                    raise _DelegateLost() from None

    def sleep(self, seconds: float):
        """Think-time/backoff sleep; a fail-stop interrupt cuts it short."""
        try:
            yield from self.env.process.sleep(seconds)
        except RankUnreachable:
            if self._delegate_dead():
                yield from self.redirect()

    # -- the session verbs ----------------------------------------------

    def call(self, envelope):
        """One request/reply exchange, redirecting on delegate death."""
        while True:
            try:
                sreq = yield from self._isend(envelope)
                yield from self._await(sreq)
                rreq = yield from self._irecv_reply()
                return unpack_object((yield from self._await(rreq)))
            except _DelegateLost:
                yield from self.redirect()

    def _irecv_reply(self):
        while True:
            try:
                return (
                    yield from self.comm.irecv(self.delegate, self.rpc.tag_reply)
                )
            except RankUnreachable:
                if self._delegate_dead():
                    raise _DelegateLost() from None

    def submit(self, envelope):
        """``call`` plus deterministic BUSY backoff (coroutine)."""
        attempt = 0
        while True:
            reply = yield from self.call(envelope)
            if reply[0] != BUSY:
                return reply
            if attempt >= self.config.max_retries:
                raise ServerBusy(
                    self.delegate, envelope.client, envelope.op, reply[1]
                )
            if self.hub is not None:
                self.hub.count("ioserver.retries")
            jitter = (
                derive_seed(
                    self.trace.seed, "busy", envelope.client, envelope.seq,
                    attempt,
                )
                % 1000
            ) / 1000.0
            backoff = (
                BACKOFF_BASE * (2 ** min(attempt, 6)) * (1.0 + jitter)
            )
            yield from self.sleep(backoff)
            attempt += 1

    def barrier(self, batch, verb: str):
        """Subscribe a batch of same-verb barrier requests; await DONEs."""
        envelopes = []
        for b in batch:
            rnd = self.rounds.get((b.client, verb), 0) + 1
            args = (b.mode, rnd) if verb == "open" else (rnd,)
            envelopes.append(RpcEnvelope(b.client, b.seq, verb, args))
        while True:
            try:
                sreqs = []
                for e in envelopes:
                    sreqs.append((yield from self._isend(e)))
                yield from self._await_many(sreqs)
                for _ in envelopes:
                    rreq = yield from self._irecv_reply()
                    reply = unpack_object((yield from self._await(rreq)))
                    assert reply[0] == DONE
                break
            except _DelegateLost:
                yield from self.redirect()
        for b in batch:
            self.rounds[(b.client, verb)] = (
                self.rounds.get((b.client, verb), 0) + 1
            )
        if verb in ("flush", "close"):
            # The epoch committed: everything acked so far is durable.
            self.replay.clear()

    def redirect(self):
        """Fail over to the ring-next alive delegate and replay the
        write-behind window (coroutine).

        The dead delegate's volatile queue — and its share of the level-1
        /level-2 staging — held every write acked since the last commit;
        the replay buffer re-submits exactly those, so the only data a
        single delegate death can lose is what a *second* death before
        the next commit would strand.
        """
        dead = self.env.world.dead_ranks
        self.delegate = failover_delegate(self.placement, self.delegate, dead)
        self.redirects += 1
        if self.hub is not None:
            self.hub.count("ioserver.failover.redirects", 1)
        for client, seq, offset, nbytes in list(self.replay):
            payload = payload_bytes(self.trace.seed, client, seq, nbytes)
            reply = yield from self.submit(
                RpcEnvelope(client, seq, "write", (offset, payload))
            )
            assert reply[0] == ADMIT
            if self.hub is not None:
                self.hub.count("ioserver.failover.replayed_bytes", nbytes)


def run_clients(
    env, config: IoServerConfig, placement: Placement, trace: WorkloadTrace
):
    """One client rank's session: play its logical clients' requests.

    Returns a result dict with per-verb latency samples (virtual
    seconds), fetched bytes by trace seq, and rejection/retry counts.
    """
    if config.failover:
        return (yield from _run_clients_failover(env, config, placement, trace))
    rpc = RpcEndpoint(env.comm)
    delegate = placement.delegate_of_rank[env.rank]
    mine = set(placement.clients_of_rank(env.rank))
    ops = [op for op in trace.ops if op.client in mine]
    hub = env.world.trace
    latencies: dict[str, list[float]] = {}
    fetched: dict[int, bytes] = {}
    i = 0
    while i < len(ops):
        op = ops[i]
        if op.op in BARRIER_OPS:
            # Batch every consecutive same-verb barrier request: the
            # delegate completes the collective only once ALL its clients
            # subscribed, so awaiting replies one-by-one would deadlock a
            # rank playing several clients.
            batch = [op]
            while i + 1 < len(ops) and ops[i + 1].op == op.op:
                i += 1
                batch.append(ops[i])
            t0 = env.now
            for b in batch:
                args = (b.mode,) if b.op == "open" else ()
                yield from rpc.send_request(
                    delegate, RpcEnvelope(b.client, b.seq, b.op, args)
                )
            for _ in batch:
                reply = yield from rpc.recv_reply(delegate)
                assert reply[0] == DONE
            _observe(hub, latencies, op.op, env.now - t0, len(batch))
        elif op.op == "write":
            if op.delay:
                yield from env.process.sleep(op.delay)
            payload = payload_bytes(trace.seed, op.client, op.seq, op.nbytes)
            t0 = env.now
            reply = yield from _submit(
                env, rpc, delegate,
                RpcEnvelope(op.client, op.seq, "write", (op.offset, payload)),
                config, trace.seed, hub,
            )
            assert reply[0] == ADMIT
            _observe(hub, latencies, "write", env.now - t0)
        elif op.op == "fetch":
            if op.delay:
                yield from env.process.sleep(op.delay)
            t0 = env.now
            reply = yield from _submit(
                env, rpc, delegate,
                RpcEnvelope(op.client, op.seq, "fetch", (op.offset, op.nbytes)),
                config, trace.seed, hub,
            )
            assert reply[0] == DATA
            fetched[op.seq] = reply[1]
            _observe(hub, latencies, "fetch", env.now - t0)
        else:
            raise IoServerError(f"client rank {env.rank}: bad trace op {op.op!r}")
        i += 1
    for client in sorted(mine):
        reply = yield from rpc.call(
            delegate, RpcEnvelope(client, -1, SHUTDOWN)
        )
        assert reply[0] == DONE
    return {"latencies": latencies, "fetched": fetched}


def _run_clients_failover(
    env, config: IoServerConfig, placement: Placement, trace: WorkloadTrace
):
    """The failover-armed client session: same trace, redirect on death."""
    hub = env.world.trace
    sess = _ClientSession(env, config, placement, trace, hub)
    mine = set(placement.clients_of_rank(env.rank))
    ops = [op for op in trace.ops if op.client in mine]
    latencies: dict[str, list[float]] = {}
    fetched: dict[int, bytes] = {}
    i = 0
    while i < len(ops):
        op = ops[i]
        if op.op in BARRIER_OPS:
            batch = [op]
            while i + 1 < len(ops) and ops[i + 1].op == op.op:
                i += 1
                batch.append(ops[i])
            t0 = env.now
            yield from sess.barrier(batch, op.op)
            _observe(hub, latencies, op.op, env.now - t0, len(batch))
        elif op.op == "write":
            if op.delay:
                yield from sess.sleep(op.delay)
            payload = payload_bytes(trace.seed, op.client, op.seq, op.nbytes)
            t0 = env.now
            reply = yield from sess.submit(
                RpcEnvelope(op.client, op.seq, "write", (op.offset, payload))
            )
            assert reply[0] == ADMIT
            sess.replay.append((op.client, op.seq, op.offset, op.nbytes))
            _observe(hub, latencies, "write", env.now - t0)
        elif op.op == "fetch":
            if op.delay:
                yield from sess.sleep(op.delay)
            t0 = env.now
            reply = yield from sess.submit(
                RpcEnvelope(op.client, op.seq, "fetch", (op.offset, op.nbytes))
            )
            assert reply[0] == DATA
            fetched[op.seq] = reply[1]
            _observe(hub, latencies, "fetch", env.now - t0)
        else:
            raise IoServerError(f"client rank {env.rank}: bad trace op {op.op!r}")
        i += 1
    for client in sorted(mine):
        reply = yield from sess.call(RpcEnvelope(client, -1, SHUTDOWN))
        assert reply[0] == DONE
    return {
        "latencies": latencies,
        "fetched": fetched,
        "redirects": sess.redirects,
    }


def _observe(hub, latencies, verb: str, seconds: float, n: int = 1) -> None:
    samples = latencies.setdefault(verb, [])
    for _ in range(n):
        samples.append(seconds)
    if hub is not None:
        micros = seconds * 1e6
        for _ in range(n):
            hub.registry.histogram(f"ioserver.latency.{verb}.us").observe(micros)
