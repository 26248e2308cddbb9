"""Delegate service loop and client session (the ViPIOS-style core).

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
trace requests in ``seq`` order, submitting each to its delegate and
measuring per-request latency on the virtual clock. ``BUSY`` rejections
back off deterministically and resubmit; barrier verbs (open/flush/close)
are batched per rank (:func:`op_runs`) — all of its clients' requests go
out before the first reply is awaited, since a delegate completes a
barrier only once *every* client subscribed.

Both sides move every message one way — ``isend``/``irecv`` on the
``TAG_REQUEST``/``TAG_REPLY`` pair of :mod:`repro.ioserver.protocol`,
then a wait — and route a fail-stop interrupt (:class:`RankUnreachable`)
at any of those points through one recovery policy per side.
``IoServerConfig.failover`` is that policy. Off, the interrupt is
re-raised and the job aborts. On, the shared TCIO handle runs with
``ft=True`` (the survivors shrink and complete the flush); a delegate
joins that survivor recovery, adopts the dead delegate's clients into its
expected set and answers their stale barrier subscriptions with catch-up
``DONE``\\ s via per-verb round counters; a client whose delegate died
redirects to the ring-next alive delegate
(:func:`~repro.ioserver.protocol.failover_delegate`) and replays every
acknowledged-but-uncommitted write there — the write-behind data only the
dead delegate's volatile queue held — while a client whose peer is alive
re-waits the same request. Failover also defers the real ``tcio_close``
to service exit so late-replayed writes still have an open handle to land
in. See ``docs/io-server.md``.

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
    TAG_REPLY,
    TAG_REQUEST,
    IoServerConfig,
    Placement,
    adopted_clients,
    failover_delegate,
)
from repro.ioserver.trace import WorkloadTrace, payload_bytes
from repro.sim.api import run_coroutine
from repro.simmpi.comm import ANY_SOURCE, wait_all
from repro.simmpi.rpc import RpcEnvelope
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


class _Delegate:
    """One delegate's service session: queue, collective state, recovery.

    Every interrupt at a send, receive or wait goes to :meth:`recover` —
    the one place the failover policy decides between aborting and
    joining a pending survivor recovery
    (see :meth:`TcioFile.ft_join_recovery`). When a peer delegate dies,
    the ranks it served redirect here, and :meth:`adopt` takes over their
    logical clients.
    """

    def __init__(self, env, sub_comm, config: IoServerConfig, tcio_config,
                 clients, file_name, placement: Optional[Placement]):
        self.env = env
        self.sub_comm = sub_comm
        self.failover = config.failover
        self.tcio_config = tcio_config
        self.placement = placement
        self.comm = env.comm
        self.hub = env.world.trace
        self.tracer = self.hub.tracer
        self.expected = frozenset(clients)
        self.depth = config.queue_depth
        self.queue: deque = deque()  # (src_rank, envelope), admission order
        self.waiters: dict[str, dict[int, int]] = {}  # verb -> client -> src
        self.rounds: dict[str, int] = {}  # verb -> completed collectives
        self.open_mode = ""
        self.file_name = file_name
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
        self.known_dead: set[int] = set()
        #: Peer delegates that announced a drained client set.
        self.peers_done: set[int] = set()
        #: Logical clients some peer saw shut down — they never redirect.
        self.finished: set[int] = set()
        self.announced = False

    # -- the recovery policy --------------------------------------------

    def recover(self, exc: RankUnreachable):
        """Abort, or join the survivor-flush collective and adopt
        (coroutine)."""
        if not self.failover:
            raise exc
        if self.fh is not None:
            yield from self.fh.ft_join_recovery()
        self.adopt()

    def retry(self, step):
        """Run one wait *step* (a coroutine factory) under the recovery
        policy, re-waiting after a recovered interrupt (coroutine)."""
        while True:
            try:
                return (yield from step())
            except RankUnreachable as exc:
                yield from self.recover(exc)

    def isend(self, message, dest: int, tag: int):
        """``isend`` under the recovery policy (coroutine); ``None`` once
        *dest* itself is dead.

        ``isend`` schedules delivery before its first interruptible point,
        so re-waiting the returned request never duplicates the message.
        """
        while True:
            try:
                return (yield from self.comm.isend(message, dest, tag))
            except RankUnreachable as exc:
                yield from self.recover(exc)
            if dest in self.env.world.dead_ranks:
                return None

    def recv(self, source=ANY_SOURCE):
        """One request arrival -> ``(source_rank, envelope)`` (coroutine).

        The *same* receive request is re-waited across recovered
        interrupts — abandoning a matched receive would consume the
        message without delivering it anywhere.
        """
        while True:
            try:
                req = yield from self.comm.irecv(source, TAG_REQUEST)
                break
            except RankUnreachable as exc:
                yield from self.recover(exc)
        envelope = yield from self.retry(req.wait)
        return req.status.source, envelope

    def reply(self, dest: int, message):
        """Send one reply (coroutine)."""
        req = yield from self.isend(message, dest, TAG_REPLY)
        if req is not None:
            yield from self.retry(req.wait)

    # -- failover: adoption and the drain barrier -----------------------

    def adopt(self) -> None:
        """Fold newly-redirected logical clients into the expected set."""
        dead = set(self.placement.delegates) & self.env.world.dead_ranks
        if dead <= self.known_dead:
            return
        self.known_dead |= dead
        mine = adopted_clients(self.placement, self.env.rank, dead)
        # A client its (announced-then-died) delegate saw shut down has
        # completed its whole session; it will never redirect here, and
        # expecting it would block the drain barrier forever.
        new = mine - self.finished - set(self.expected)
        if new:
            self.expected = frozenset(self.expected | new)
            self.stats["adopted_clients"] += len(new)
            self.hub.count("ioserver.failover.adopted", len(new))

    def peers_finished(self) -> bool:
        """Every peer delegate is drained or dead — safe to exit."""
        return all(
            peer in self.peers_done or peer in self.env.world.dead_ranks
            for peer in self.placement.delegates
            if peer != self.env.rank
        )

    def announce(self):
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
        envelope = RpcEnvelope(-1, -1, PEER_DONE, (tuple(sorted(self.done)),))
        reqs = []
        for peer in self.placement.delegates:
            if peer == self.env.rank or peer in self.env.world.dead_ranks:
                continue
            req = yield from self.isend(envelope, peer, TAG_REQUEST)
            if req is not None:
                reqs.append(req)
        yield from self.retry(lambda: wait_all(reqs))

    # -- the service loop -----------------------------------------------

    def run(self):
        """The service loop (coroutine); returns the stats dict."""
        env = self.env
        while True:
            if self.failover:
                # Fold in any newly-dead peer's clients *before* judging
                # the exit condition: a delegate that stops listening
                # while a redirected client is still in flight strands it.
                self.adopt()
                if self.done >= self.expected:
                    yield from self.announce()
                    if self.peers_finished():
                        break
            elif self.done >= self.expected:
                break
            progressed = False
            while True:  # drain every arrived request (cheap admission pass)
                status = self.comm.iprobe(ANY_SOURCE, TAG_REQUEST)
                if status is None:
                    break
                src, envelope = yield from self.recv(status.source)
                yield from self.on_arrival(envelope, src)
                progressed = True
            if self.queue:
                src, envelope = self.queue.popleft()
                try:
                    yield from _crash_point(env, "srv-apply")
                    yield from self.apply(envelope, src)
                except RankUnreachable as exc:
                    # Half-applied requests are idempotent (same bytes,
                    # same offsets): put the envelope back and re-apply
                    # after the survivor recovery.
                    self.queue.appendleft((src, envelope))
                    yield from self.recover(exc)
                continue
            verb = self.ready_collective()
            if verb is not None:
                yield from self.run_collective(verb)
                continue
            if progressed:
                continue
            # Idle: park until the next request arrives.
            src, envelope = yield from self.recv()
            yield from self.on_arrival(envelope, src)
        if self.fh is not None:
            if not self.failover:
                self.fh.abort()
                raise IoServerError(
                    f"delegate rank {env.rank}: clients shut down with the file open"
                )
            # Failover defers the real close to service exit so writes
            # replayed after the close *verb* still have a handle to land in.
            fh, self.fh = self.fh, None
            yield from fh.close()
            self._note_commit(fh)
        return self.stats

    def _note_commit(self, fh: TcioFile) -> None:
        self.stats["committed_epoch"] = max(
            self.stats["committed_epoch"], fh.committed_epoch
        )

    def on_arrival(self, envelope, src):
        """Admission control: queue, subscribe, or reject one arrival."""
        hub = self.hub
        if envelope.op == PEER_DONE:
            self.peers_done.add(src)
            self.finished |= set(envelope.args[0])
            return
        if envelope.client not in self.expected:
            # First contact from a redirected client: adopt before judging.
            self.adopt()
            if envelope.client not in self.expected:
                raise IoServerError(
                    f"delegate rank {self.env.rank}: request from client "
                    f"{envelope.client} it neither serves nor adopted"
                )
        op = envelope.op
        if op in BARRIER_OPS:
            if self.failover and envelope.args[-1] <= self.rounds.get(op, 0):
                # A late subscription to a collective round that already
                # completed (an adopted client catching up after redirect):
                # its global effect is in place, acknowledge immediately.
                self.stats["catchup_dones"] += 1
                hub.count("ioserver.failover.catchup_dones", 1)
                yield from self.reply(src, (DONE,))
                return
            self.waiters.setdefault(op, {})[envelope.client] = src
            if op == "open":
                self.open_mode = envelope.args[0]
            return
        if op == SHUTDOWN:
            self.done.add(envelope.client)
            yield from self.reply(src, (DONE,))
            return
        if op not in ("write", "fetch"):
            raise IoServerError(
                f"delegate rank {self.env.rank}: unknown request {op!r}"
            )
        if len(self.queue) >= self.depth:
            # Backpressure: reject without dequeuing anything; the client
            # sees a deterministic retryable ServerBusy signal.
            self.stats["rejected"] += 1
            hub.count("ioserver.rejected")
            yield from self.reply(src, (BUSY, len(self.queue)))
            return
        yield from _crash_point(self.env, "srv-admit")
        self.queue.append((src, envelope))
        depth = len(self.queue)
        self.stats["admitted"] += 1
        self.stats["max_depth"] = max(self.stats["max_depth"], depth)
        hub.count("ioserver.admitted")
        hub.registry.histogram("ioserver.queue.depth").observe(depth)
        gauge = hub.registry.gauge("ioserver.queue.highwater")
        gauge.set(max(gauge.value, depth))
        if op == "write":
            # The write-behind ack: enqueued, not yet durable.
            yield from self.reply(src, (ADMIT,))

    def apply(self, envelope, src):
        """Apply one admitted request against the shared TCIO handle."""
        if self.fh is None:
            raise IoServerError(
                f"delegate rank {self.env.rank}: {envelope.op} before the "
                f"collective open"
            )
        if envelope.op == "write":
            offset, payload = envelope.args
            with self.tracer.span("ioserver.apply", op="write", bytes=len(payload)):
                yield from self.fh.write_at(offset, payload)
            self.stats["applied_writes"] += 1
            self.stats["written_bytes"] += len(payload)
            self.hub.count("ioserver.bytes.written", len(payload))
        else:  # fetch
            offset, nbytes = envelope.args
            data = yield from self.fh.read_now(offset, nbytes)
            self.stats["applied_fetches"] += 1
            self.hub.count("ioserver.bytes.read", len(data))
            yield from self.reply(src, (DATA, data))

    def ready_collective(self) -> Optional[str]:
        """The collective verb every client subscribed to, if any.

        Only called with an empty queue, so "queue drained" — the condition
        that makes flush-before-apply reordering impossible — always holds.
        """
        for verb in BARRIER_OPS:
            if set(self.waiters.get(verb, ())) == self.expected:
                return verb
        return None

    def run_collective(self, verb: str):
        """Enter one collective point over the delegate sub-communicator."""
        env = self.env
        if verb == "open":
            if self.fh is not None:
                if not self.failover:
                    raise IoServerError("open while a handle is already open")
                # Failover defers the close verb's real close; a re-open
                # (a trace's read phase) settles it here.
                fh, self.fh = self.fh, None
                yield from fh.close()
            mode = TCIO_WRONLY if self.open_mode == "w" else TCIO_RDONLY
            self.fh = yield from TcioFile.open(
                env, self.file_name, mode, self.tcio_config, comm=self.sub_comm
            )
        elif verb == "flush":
            yield from _crash_point(env, "srv-flush")
            with self.tracer.span("ioserver.epoch", rank=env.rank):
                yield from self.fh.flush()
            self.stats["epochs"] += 1
            self._note_commit(self.fh)
            registry = self.hub.registry
            registry.gauge("ioserver.epoch.committed").set(self.fh.committed_epoch)
            registry.histogram("ioserver.write_behind.segments").observe(
                self.fh.pending_write_behind
            )
        else:  # close
            yield from _crash_point(env, "srv-close")
            if self.failover:
                # Durability now, the real (collective) close at service
                # exit: replayed writes arriving after a failover may
                # still need the open handle.
                yield from self.fh.flush()
                self._note_commit(self.fh)
            else:
                self._note_commit(self.fh)
                yield from self.fh.close()
                self.fh = None
        self.rounds[verb] = self.rounds.get(verb, 0) + 1
        waiters = self.waiters.pop(verb)
        # Schedule every DONE before the first interruptible point (isend
        # delivers regardless), so a fail-stop interrupt mid-batch cannot
        # split the round's acknowledgements.
        reqs = []
        for client in sorted(waiters):
            req = yield from self.isend((DONE,), waiters[client], TAG_REPLY)
            if req is not None:
                reqs.append(req)
        yield from self.retry(lambda: wait_all(reqs))


def serve(
    env, sub_comm, config: IoServerConfig, tcio_config, clients, file_name,
    placement: Optional[Placement] = None,
):
    """One delegate's persistent service loop (a coroutine to
    ``yield from``).

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
    # The loop itself, not a wrapper around it: one frame fewer on every
    # resume of the delegate.
    return _Delegate(
        env, sub_comm, config, tcio_config, clients, file_name, placement
    ).run()


# ----------------------------------------------------------------------
# the client side
# ----------------------------------------------------------------------


def op_runs(ops):
    """Yield ``(op, run)`` for a client's ops in order: ``run`` is the
    whole run of consecutive same-verb barrier ops (open/flush/close)
    starting at ``op``, or ``[op]`` for a write or fetch.

    A delegate completes a barrier only once *all* its clients
    subscribed, so a rank playing several clients must subscribe the
    whole run before awaiting any reply — one by one would deadlock.
    """
    i = 0
    while i < len(ops):
        op = ops[i]
        j = i + 1
        if op.op in BARRIER_OPS:
            while j < len(ops) and ops[j].op == op.op:
                j += 1
        yield op, ops[i:j]
        i = j


class _DelegateLost(Exception):
    """Internal: the client's current delegate died; redirect and retry."""


class _ClientSession:
    """One client rank's submission state and recovery policy."""

    def __init__(self, env, config: IoServerConfig, placement: Placement,
                 trace: WorkloadTrace):
        self.env = env
        self.comm = env.comm
        self.config = config
        self.placement = placement
        self.trace = trace
        self.hub = env.world.trace
        self.delegate = placement.delegate_of_rank[env.rank]
        #: (client, verb) -> collective rounds this client completed.
        self.rounds: dict[tuple[int, str], int] = {}
        #: Acked-but-uncommitted writes: (client, seq, offset, nbytes).
        self.replay: list[tuple[int, int, int, int]] = []
        self.redirects = 0

    # -- the recovery policy --------------------------------------------

    def _interrupted(self, exc: RankUnreachable) -> None:
        """Decide one fail-stop interrupt: re-raise it (failover off),
        raise :class:`_DelegateLost` (this client's delegate died), or
        return so the caller retries the same step (another rank died)."""
        if not self.config.failover:
            raise exc
        if self.delegate in self.env.world.dead_ranks:
            raise _DelegateLost() from None

    def _retry(self, step):
        """Run one messaging *step* (a coroutine factory) under the
        recovery policy, retrying it after an interrupt: an ``isend`` or
        ``irecv`` that raised posted nothing, and a wait re-waits the
        same request."""
        while True:
            try:
                return (yield from step())
            except RankUnreachable as exc:
                self._interrupted(exc)

    def _isend(self, envelope):
        return self._retry(
            lambda: self.comm.isend(envelope, self.delegate, TAG_REQUEST)
        )

    def _recv_reply(self):
        """The next reply from the current delegate (coroutine)."""
        req = yield from self._retry(
            lambda: self.comm.irecv(self.delegate, TAG_REPLY)
        )
        return (yield from self._retry(req.wait))

    def sleep(self, seconds: float):
        """Think-time/backoff sleep; a fail-stop interrupt cuts it short."""
        try:
            yield from self.env.process.sleep(seconds)
        except RankUnreachable as exc:
            try:
                self._interrupted(exc)
            except _DelegateLost:
                yield from self.redirect()

    # -- the session verbs ----------------------------------------------

    def call(self, envelope):
        """One request/reply exchange, redirecting on delegate death."""
        while True:
            try:
                sreq = yield from self._isend(envelope)
                yield from self._retry(sreq.wait)
                return (yield from self._recv_reply())
            except _DelegateLost:
                yield from self.redirect()

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
            self.hub.count("ioserver.retries")
            # Exponential backoff with seeded jitter, all on the virtual clock.
            jitter = (
                derive_seed(
                    self.trace.seed, "busy", envelope.client, envelope.seq,
                    attempt,
                )
                % 1000
            ) / 1000.0
            yield from self.sleep(
                BACKOFF_BASE * (2 ** min(attempt, 6)) * (1.0 + jitter)
            )
            attempt += 1

    def barrier(self, run):
        """Subscribe a run of same-verb barrier requests; await DONEs."""
        verb = run[0].op
        envelopes = []
        for b in run:
            args = (b.mode,) if verb == "open" else ()
            if self.config.failover:
                # The round number lets a standby answer a late
                # subscription with a catch-up DONE.
                args += (self.rounds.get((b.client, verb), 0) + 1,)
            envelopes.append(RpcEnvelope(b.client, b.seq, verb, args))
        while True:
            try:
                sreqs = []
                for e in envelopes:
                    sreqs.append((yield from self._isend(e)))
                yield from self._retry(lambda: wait_all(sreqs))
                for _ in envelopes:
                    reply = yield from self._recv_reply()
                    assert reply[0] == DONE
                break
            except _DelegateLost:
                yield from self.redirect()
        for b in run:
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
        self.hub.count("ioserver.failover.redirects", 1)
        for client, seq, offset, nbytes in list(self.replay):
            payload = payload_bytes(self.trace.seed, client, seq, nbytes)
            reply = yield from self.submit(
                RpcEnvelope(client, seq, "write", (offset, payload))
            )
            assert reply[0] == ADMIT
            self.hub.count("ioserver.failover.replayed_bytes", nbytes)


def run_clients(
    env, config: IoServerConfig, placement: Placement, trace: WorkloadTrace
):
    """One client rank's session: play its logical clients' requests.

    Returns a result dict with per-verb latency samples (virtual
    seconds), fetched bytes by trace seq, and the failover redirect count.
    """
    sess = _ClientSession(env, config, placement, trace)
    mine = set(placement.clients_of_rank(env.rank))
    latencies: dict[str, list[float]] = {}
    fetched: dict[int, bytes] = {}
    for op, run in op_runs([op for op in trace.ops if op.client in mine]):
        if op.op in BARRIER_OPS:
            t0 = env.now
            yield from sess.barrier(run)
            _observe(sess.hub, latencies, op.op, env.now - t0, len(run))
            continue
        if op.op not in ("write", "fetch"):
            raise IoServerError(f"client rank {env.rank}: bad trace op {op.op!r}")
        if op.delay:
            yield from sess.sleep(op.delay)
        t0 = env.now
        if op.op == "write":
            payload = payload_bytes(trace.seed, op.client, op.seq, op.nbytes)
            reply = yield from sess.submit(
                RpcEnvelope(op.client, op.seq, "write", (op.offset, payload))
            )
            assert reply[0] == ADMIT
            sess.replay.append((op.client, op.seq, op.offset, op.nbytes))
        else:
            reply = yield from sess.submit(
                RpcEnvelope(op.client, op.seq, "fetch", (op.offset, op.nbytes))
            )
            assert reply[0] == DATA
            fetched[op.seq] = reply[1]
        _observe(sess.hub, latencies, op.op, env.now - t0)
    for client in sorted(mine):
        reply = yield from sess.call(RpcEnvelope(client, -1, SHUTDOWN))
        assert reply[0] == DONE
    return {"latencies": latencies, "fetched": fetched, "redirects": sess.redirects}


def _observe(hub, latencies, verb: str, seconds: float, n: int = 1) -> None:
    samples = latencies.setdefault(verb, [])
    histogram = hub.registry.histogram(f"ioserver.latency.{verb}.us")
    micros = seconds * 1e6
    for _ in range(n):
        samples.append(seconds)
        histogram.observe(micros)
