"""The unit-indexed lock manager against the linear one it replaced.

The manager used to scan every held grant of the file on every request;
it now looks only in the buckets of the lock units a request touches.
That is only allowed to be faster, never different: the first cached
match, the revoke order in the audit history and the contention-penalty
count (simulated time) must all stay those of the full scan. The old
manager is kept here, verbatim, as the oracle; Hypothesis drives identical
programs through both under ``audit=True`` and compares, after every step,
what each acquire returned, the counters, the table sizes and the engine
clock, and at the end the whole audit history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from hypothesis import example, given, settings, strategies as st

from repro.pfs.lockmgr import LockManager, LockMode, verify_lock_history
from repro.sim.engine import Engine, active_process
from repro.sim.process import SimProcess
from repro.sim.trace import TraceRecorder
from repro.util.errors import LockTimeout, PfsError, SimulationError
from repro.util.intervals import Extent

GRANULARITY = 8


def _overlaps(a: Extent, b: Extent) -> bool:
    """The two extents share at least one byte."""
    return a.start < b.stop and b.start < a.stop


def _covers(a: Extent, b: Extent) -> bool:
    """*b* lies entirely inside *a*."""
    return a.start <= b.start and b.stop <= a.stop


@dataclass
class _OracleGrant:
    owner: int
    mode: LockMode
    extent: Extent
    released: bool = False
    in_use: int = 1


@dataclass
class _OracleWaiting:
    owner: int
    mode: LockMode
    extent: Extent
    proc: SimProcess
    grant: Optional[_OracleGrant] = None


class LinearLockManager:
    """The lock manager as it was before the unit index (the oracle).

    ``contention_penalty`` charges the acquirer extra time per conflicting
    holder/waiter it finds (the DLM callback/revocation round trips of a
    real lock server) — fine-grained interleaved writers therefore degrade
    superlinearly with client count.
    """

    def __init__(
        self, granularity: int, contention_penalty: float = 0.0, trace=None,
        *, audit: bool = False,
    ):
        if granularity < 1:
            raise PfsError("lock granularity must be positive")
        if contention_penalty < 0:
            raise PfsError("contention penalty must be >= 0")
        self.granularity = granularity
        self.contention_penalty = contention_penalty
        self.trace = trace = trace or TraceRecorder()
        self._tracer = trace.tracer
        self._held: list[_OracleGrant] = []
        self._queue: Deque[_OracleWaiting] = deque()
        self.acquires = 0
        self.cache_hits = 0  # served from a cached grant, no server trip
        self.waits = 0  # acquires that had to block (contention counter)
        self.timeouts = 0  # acquires that expired before their grant
        #: When auditing, every grant-set mutation is appended here as
        #: ``(event, owner, mode, start, stop)`` in engine order, for the
        #: invariant checker (:func:`verify_lock_history`). Events:
        #: ``grant`` (immediate), ``grant_queued`` (after waiting),
        #: ``release``, ``revoke``, ``wait``, ``timeout``.
        self.audit = audit
        self.history: list[tuple[str, int, str, int, int]] = []
        #: Optional callback invoked with ``(owner, extent)`` when a
        #: timed acquire expires (the fault plan hooks this to record
        #: the injection).
        self.on_timeout = None

    def _count(self, name: str) -> None:
        self.trace.count(name)

    def _note(self, event: str, owner: int, mode: LockMode, extent: Extent) -> None:
        if self.audit:
            self.history.append((event, owner, mode.value, extent.start, extent.stop))

    # ------------------------------------------------------------------
    def _conflicts(self, mode: LockMode, extent: Extent, owner: int) -> bool:
        """A *busy or idle* conflicting grant of another owner exists.

        Callers revoke idle conflicts first; whatever remains is in use
        and must be waited for.
        """
        for grant in self._held:
            if grant.owner == owner:
                continue
            if not _overlaps(grant.extent, extent):
                continue
            if grant.mode is LockMode.EXCLUSIVE or mode is LockMode.EXCLUSIVE:
                return True
        return False

    def _blocked_by_queue(self, extent: Extent, owner: int) -> bool:
        """FIFO fairness: an overlapping waiter ahead of us blocks us too."""
        return any(
            w.owner != owner and _overlaps(w.extent, extent) for w in self._queue
        )

    def _cached_match(self, owner: int, mode: LockMode, extent: Extent):
        """An existing grant of *owner* that already covers the request."""
        for g in self._held:
            if g.owner != owner or not _covers(g.extent, extent):
                continue
            if mode is LockMode.EXCLUSIVE and g.mode is not LockMode.EXCLUSIVE:
                continue
            return g
        return None

    def _revoke_idle_conflicts(self, mode: LockMode, extent: Extent, owner: int) -> int:
        """Drop other owners' *cached* (idle) conflicting grants; returns
        how many were revoked (each costs a DLM callback round trip)."""
        revoked = 0
        for g in list(self._held):
            if g.owner == owner or g.in_use > 0 or not _overlaps(g.extent, extent):
                continue
            if g.mode is LockMode.EXCLUSIVE or mode is LockMode.EXCLUSIVE:
                g.released = True
                self._held.remove(g)
                self._note("revoke", g.owner, g.mode, g.extent)
                revoked += 1
        return revoked

    # ------------------------------------------------------------------
    def acquire(
        self,
        owner: int,
        mode: LockMode,
        extent: Extent,
        *,
        timeout: Optional[float] = None,
    ):
        """Park until the (rounded) extent lock is granted (coroutine).

        A cached grant of the same owner covering the extent is reused for
        free (Lustre client lock caching); idle conflicting grants of other
        owners are revoked with a per-grant callback penalty; busy ones are
        waited for FIFO. Must run inside a simulated process; the caller
        charges the lock-server round trip separately (the filesystem
        layer does).

        With ``timeout`` set, a request still queued after that much
        virtual time is withdrawn — the queue entry is removed (no orphan
        blocks later waiters) and :class:`LockTimeout` raised, so callers
        can retry with backoff.
        """
        rounded = extent.align_down(self.granularity)
        cached = self._cached_match(owner, mode, rounded)
        if cached is not None and not self._blocked_by_queue(rounded, owner):
            cached.in_use += 1
            self.cache_hits += 1
            self._count("pfs.lock.cache_hit")
            return cached
        self.acquires += 1
        self._count("pfs.lock.acquire")
        proc = active_process()
        if not self._blocked_by_queue(rounded, owner):
            revoked = self._revoke_idle_conflicts(mode, rounded, owner)
            if revoked:
                if self.contention_penalty:
                    proc.charge(revoked * self.contention_penalty)
                self.trace.count("pfs.lock.revoke", revoked)
            if not self._conflicts(mode, rounded, owner):
                grant = _OracleGrant(owner, mode, rounded)
                self._held.append(grant)
                self._note("grant", owner, mode, rounded)
                return grant
        self.waits += 1
        self._count("pfs.lock.wait")
        if self.contention_penalty:
            conflicts = sum(
                1 for g in self._held if g.owner != owner and _overlaps(g.extent, rounded)
            ) + sum(
                1 for w in self._queue if w.owner != owner and _overlaps(w.extent, rounded)
            )
            proc.charge(conflicts * self.contention_penalty)
        waiting = _OracleWaiting(owner, mode, rounded, proc)
        self._queue.append(waiting)
        self._note("wait", owner, mode, rounded)
        timer = None
        if timeout is not None and timeout > 0:
            def expire() -> None:
                # Only meaningful while still queued without a grant; a
                # grant racing the timer wins (the timer is cancelled on
                # the normal path, but an engine-context _drain may have
                # granted in the same instant).
                if waiting.grant is not None or waiting not in self._queue:
                    return
                self._queue.remove(waiting)
                self.timeouts += 1
                self._count("pfs.lock.timeout")
                self._note("timeout", owner, mode, rounded)
                if self.on_timeout is not None:
                    self.on_timeout(owner, rounded)
                # Our queue slot no longer blocks anyone behind us.
                self._drain()
                waiting.proc.wake()

            timer = proc.engine.schedule(timeout, expire)
        try:
            with self._tracer.span("pfs.lock_wait", mode=mode.value, owner=owner):
                yield from proc.block(f"pfs.lock({mode.value}, {rounded})")
        except BaseException:
            # The waiter was interrupted mid-park (fail-stop crash or
            # RankUnreachable notification). Withdraw its queue entry so
            # no orphan blocks later waiters; a grant that raced in via
            # _drain is returned to the pool instead of leaking.
            if waiting in self._queue:
                self._queue.remove(waiting)
                self._note("timeout", owner, mode, rounded)
                self._drain()
            elif waiting.grant is not None and not waiting.grant.released:
                waiting.grant.released = True
                self._held.remove(waiting.grant)
                self._note("release", owner, mode, rounded)
                self._drain()
            if timer is not None:
                timer.cancel()
            raise
        if waiting.grant is None:
            raise LockTimeout(owner, rounded, timeout)
        if timer is not None:
            timer.cancel()
        return waiting.grant

    def done(self, grant: _OracleGrant) -> None:
        """The I/O under *grant* finished; keep the grant cached."""
        if grant.released:
            raise PfsError("done() on a released grant")
        if grant.in_use <= 0:
            raise PfsError("done() without a matching use")
        grant.in_use -= 1
        if grant.in_use == 0:
            self._drain()

    def release(self, grant: _OracleGrant) -> None:
        """Drop the grant entirely (cached or not)."""
        if grant.released:
            raise PfsError("lock released twice")
        grant.released = True
        self._held.remove(grant)
        self._note("release", grant.owner, grant.mode, grant.extent)
        self._drain()

    def _drain(self) -> None:
        """Grant queued requests FIFO until one cannot proceed."""
        while self._queue:
            head = self._queue[0]
            self._revoke_idle_conflicts(head.mode, head.extent, head.owner)
            if self._conflicts(head.mode, head.extent, head.owner):
                return
            self._queue.popleft()
            grant = _OracleGrant(head.owner, head.mode, head.extent)
            self._held.append(grant)
            head.grant = grant
            self._note("grant_queued", head.owner, head.mode, head.extent)
            head.proc.wake()

    # ------------------------------------------------------------------
    @property
    def held_count(self) -> int:
        """Number of currently held (incl. cached) grants."""
        return len(self._held)

    @property
    def queued_count(self) -> int:
        """Number of requests waiting FIFO."""
        return len(self._queue)


# ----------------------------------------------------------------------
# identical programs through both managers
# ----------------------------------------------------------------------
class Poke(Exception):
    """An interrupt thrown at a parked owner (a fail-stop notice stand-in)."""


G = GRANULARITY
acquires = st.tuples(
    st.just("acquire"),
    st.booleans(),  # exclusive?
    st.integers(0, 5 * G),  # start: unaligned
    st.integers(0, 3 * G),  # length: empty to multi-unit
    st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5])),  # timeout
)
dones = st.tuples(
    st.just("done"), st.integers(0, 7), st.sampled_from([0.0, 0.0, 0.5, 2.0])
)
steps = st.one_of(
    acquires,
    acquires,
    acquires,
    dones,
    dones,
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("release_cached"), st.integers(0, 7)),
)
programs = st.lists(st.lists(steps, max_size=12), min_size=1, max_size=6)
pokes = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from([0.25, 0.5, 1.0, 1.75, 3.0])), max_size=3
)


def run_program(make, penalty, owners, interrupts):
    """Run one program per owner against a manager built by *make*.

    Returns the per-step log, the audit history and the final state. A
    step logs what it did (for an acquire: which grant, by first-seen
    number, and its owner, mode and rounded extent) next to the engine
    clock, the four counters and both table sizes.
    """
    engine = Engine()
    mgr = make(GRANULARITY, penalty, audit=True)
    log = []
    seen: dict[int, int] = {}
    keep = []  # grants stay alive, so their ids stay unique

    def number(g) -> int:
        if id(g) not in seen:
            seen[id(g)] = len(keep)
            keep.append(g)
        return seen[id(g)]

    def owner_body(owner, program):
        def body():
            proc = active_process()
            active, cached = [], []

            def drop(g):
                active[:] = [x for x in active if x is not g]
                cached[:] = [x for x in cached if x is not g]
                mgr.release(g)

            for step, op in enumerate(program):
                kind = op[0]
                what = ("idle",)
                try:
                    if kind == "acquire":
                        _, exclusive, start, length, timeout = op
                        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
                        g = yield from mgr.acquire(
                            owner, mode, Extent(start, start + length), timeout=timeout
                        )
                        active.append(g)
                        what = (
                            "grant", number(g), g.owner, g.mode.value,
                            g.extent.start, g.extent.stop,
                        )
                    elif kind == "sleep":
                        yield from proc.sleep(op[1])
                        what = ("slept",)
                    elif kind == "done" and active:
                        g = active.pop(op[1] % len(active))
                        cached.append(g)
                        if op[2]:  # from engine context, as the storage client does
                            engine.schedule(op[2], lambda g=g: g.released or mgr.done(g))
                        else:
                            mgr.done(g)
                        what = ("done", number(g))
                    elif kind == "release" and active:
                        g = active[op[1] % len(active)]
                        drop(g)
                        what = ("release", number(g))
                    elif kind == "release_cached":
                        live = [g for g in cached if not g.released]
                        if live:
                            g = live[op[1] % len(live)]
                            drop(g)
                            what = ("release", number(g))
                    yield from proc.settle()  # the contention penalty is simulated time
                except LockTimeout as exc:
                    what = ("timeout", exc.owner, exc.extent.start, exc.extent.stop)
                except Poke:
                    what = ("poked",)
                log.append((
                    owner, step, what, engine.now, mgr.acquires, mgr.cache_hits,
                    mgr.waits, mgr.timeouts, mgr.held_count, mgr.queued_count,
                ))

        return body

    procs = [engine.spawn(f"o{i}", owner_body(i, p)) for i, p in enumerate(owners)]
    for owner, at in interrupts:
        if owner < len(procs):
            proc = procs[owner]
            engine.schedule(at, lambda proc=proc: proc.interrupt(Poke()))
    try:
        engine.run()
        outcome = "ok"
    except (SimulationError, PfsError) as exc:  # e.g. a lock-order deadlock
        outcome = f"{type(exc).__name__}: {exc}"
    final = (
        outcome, engine.now, mgr.acquires, mgr.cache_hits, mgr.waits,
        mgr.timeouts, mgr.held_count, mgr.queued_count,
    )
    return log, mgr.history, final


def assert_same(owners, interrupts, penalty):
    old = run_program(LinearLockManager, penalty, owners, interrupts)
    new = run_program(LockManager, penalty, owners, interrupts)
    old_log, old_history, old_final = old
    new_log, new_history, new_final = new
    for i, (a, b) in enumerate(zip(old_log, new_log)):
        assert a == b, f"step {i}: linear {a} != indexed {b}"
    assert len(old_log) == len(new_log)
    assert new_history == old_history
    assert new_final == old_final
    verify_lock_history(new_history, expect_drained=False)


X, S = True, False


@given(programs, pokes, st.sampled_from([0.0, 0.25]))
@settings(max_examples=400, deadline=None)
# one owner holding shared and exclusive over one range, then a conflicting
# reader behind it that revokes both once they are idle
@example(
    [
        [("acquire", S, 0, 8, None), ("acquire", X, 2, 4, None), ("done", 0, 0.0),
         ("done", 0, 0.5), ("sleep", 3.0)],
        [("sleep", 1.0), ("acquire", S, 4, 12, None)],
    ],
    [],
    0.25,
)
# empty requests at unit boundaries: covered by the owner's grant ending
# there, and conflicting with another owner's grant straddling one
@example(
    [
        [("acquire", X, 4, 4, None), ("done", 0, 0.0), ("acquire", X, 8, 0, None),
         ("acquire", X, 12, 8, None), ("sleep", 1.0), ("done", 0, 0.0)],
        [("sleep", 0.5), ("acquire", X, 16, 0, None), ("acquire", S, 24, 0, None)],
    ],
    [],
    0.25,
)
# idle grants created out of unit order, revoked by one multi-unit request
@example(
    [
        [("acquire", X, 16, 8, None), ("done", 0, 0.0)],
        [("acquire", S, 0, 8, None), ("done", 0, 0.0)],
        [("acquire", X, 9, 2, None), ("done", 0, 0.0)],
        [("sleep", 1.0), ("acquire", X, 0, 24, None)],
    ],
    [],
    0.25,
)
# a timed waiter that expires and one interrupted mid-park
@example(
    [
        [("acquire", X, 0, 20, None), ("sleep", 3.0), ("release", 0)],
        [("sleep", 0.5), ("acquire", X, 9, 1, 1.0)],
        [("sleep", 0.5), ("acquire", S, 0, 1, None)],
    ],
    [(2, 1.0)],
    0.25,
)
def test_indexed_manager_matches_the_linear_scan(owners, interrupts, penalty):
    assert_same(owners, interrupts, penalty)


def test_many_cached_grants_on_other_units_do_not_change_the_answer():
    """Hundreds of idle grants of many owners, then requests that revoke
    some, hit the cache on others, and wait behind busy ones."""
    writers = [
        [("acquire", X, unit * G, G, None), ("done", 0, 0.0)]
        for unit in range(40)
    ]
    owners = [
        [step for program in writers[k::4] for step in program] for k in range(4)
    ]
    owners.append([
        ("sleep", 1.0), ("acquire", X, 3, 90, None), ("acquire", S, 100, 0, None),
        ("done", 0, 0.5), ("acquire", X, 0, 4 * G, None),
    ])
    owners.append([("sleep", 1.0), ("acquire", S, 5 * G, 3 * G, 0.5), ("acquire", S, 0, 1, None)])
    assert_same(owners, [(5, 1.25)], 0.25)
