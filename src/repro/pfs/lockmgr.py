"""Distributed lock manager: stripe-granularity extent locks.

Lustre serializes conflicting access to a shared file by granting per-client
extent locks rounded to stripe boundaries. The paper's TCIO sets its level-2
segment size to this lock granularity precisely so concurrent segment
flushes from different ranks never contend: "If the segment size is smaller
than the lock granularity of the underlying file system, MPI processes might
compete with each other for the privilege to access a locked region."

Grants are FIFO (a blocked request also blocks later compatible requests on
overlapping ranges, preventing starvation), and each acquire/release pair
charges a fixed lock-server round trip.

The lock table is indexed by lock unit: a held grant is filed under every
unit it spans, so a request looks only at the grants of the units it
touches, never at everything the file has ever locked. Candidates are
visited in grant-creation order, which keeps the first cached match, the
revoke order in the audit history and the contention-penalty count
exactly those of a scan over every held grant.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence

from repro.sim.engine import active_process
from repro.sim.process import SimProcess
from repro.sim.trace import TraceRecorder
from repro.util.errors import LockTimeout, PfsError
from repro.util.intervals import Extent


class LockMode(enum.Enum):
    """Shared (read) vs exclusive (write) extent locks."""
    SHARED = "shared"  # concurrent readers
    EXCLUSIVE = "exclusive"  # single writer


_EXCLUSIVE = LockMode.EXCLUSIVE  # module-level: the hot loops test it per grant


@dataclass
class LockGrant:
    """A held lock.

    Grants are *cached* client-side, as in Lustre: ``done()`` marks the
    I/O finished but keeps the grant (``in_use == 0``) so the same owner's
    next access to the extent is free; a conflicting owner revokes cached
    grants (paying the DLM callback penalty). ``release()`` drops the
    grant entirely.
    """

    owner: int
    mode: LockMode
    extent: Extent  # already rounded to lock units
    released: bool = False
    in_use: int = 1  # active I/O operations under this grant
    seq: int = 0  # creation order: the order candidates are visited in
    units: Sequence[int] = ()  # the lock units it is filed under


@dataclass
class _Waiting:
    owner: int
    mode: LockMode
    extent: Extent
    proc: SimProcess
    grant: Optional[LockGrant] = None


class LockManager:
    """Extent locks for one file.

    ``contention_penalty`` charges the acquirer extra time per conflicting
    holder/waiter it finds (the DLM callback/revocation round trips of a
    real lock server) — fine-grained interleaved writers therefore degrade
    superlinearly with client count.

    The extent predicates are written out on integer bounds in the hot
    loops below: ``a.start < b.stop and b.start < a.stop`` is
    :meth:`Extent.overlaps`, ``a.start <= b.start and b.stop <= a.stop``
    is :meth:`Extent.covers`.
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
        trace = trace or TraceRecorder()
        self._tracer = trace.tracer
        self._counters = trace.counters
        #: Held (incl. cached) grants by lock-unit index: unit -> {seq:
        #: grant}. Grants enter a bucket in creation order, so every
        #: bucket iterates in it. See :meth:`_units_of` for the filing.
        self._units: dict[int, dict[int, LockGrant]] = {}
        self._n_held = 0
        self._seq = 0
        self._queue: Deque[_Waiting] = deque()
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

    # ------------------------------------------------------------------
    # the table
    # ------------------------------------------------------------------
    def _units_of(self, start: int, stop: int) -> range:
        """The lock units a grant on aligned ``[start, stop)`` is filed
        under — and so the buckets holding every grant that can overlap or
        cover a request for it.

        A nonempty extent is filed under its own units. An empty one at
        ``k * granularity`` is filed under units ``k - 1`` and ``k``: a
        grant straddling that point overlaps it, and a grant ending or
        starting there covers it.
        """
        lo = start // self.granularity
        hi = stop // self.granularity
        return range(lo, hi) if lo < hi else range(lo - 1, lo + 1)

    def _near(self, start: int, stop: int) -> list[LockGrant]:
        """Held grants filed under the units of ``[start, stop)``, in
        grant-creation order. A copy: callers revoke while walking it."""
        units = self._units
        if stop - start == self.granularity:  # one unit: one bucket, already in order
            bucket = units.get(start // self.granularity)
            return list(bucket.values()) if bucket else []
        found: dict[int, LockGrant] = {}
        for unit in self._units_of(start, stop):
            bucket = units.get(unit)
            if bucket:
                found.update(bucket)
        return [found[seq] for seq in sorted(found)]

    def _file(self, owner: int, mode: LockMode, extent: Extent) -> LockGrant:
        """A new grant on rounded *extent*, entered in its units' buckets."""
        self._seq += 1
        if extent.stop - extent.start == self.granularity:  # the common grant
            span = (extent.start // self.granularity,)
        else:
            span = self._units_of(extent.start, extent.stop)
        grant = LockGrant(owner, mode, extent, seq=self._seq, units=span)
        units = self._units
        for unit in span:
            bucket = units.get(unit)
            if bucket is None:
                units[unit] = {grant.seq: grant}
            else:
                bucket[grant.seq] = grant
        self._n_held += 1
        return grant

    def _drop(self, grant: LockGrant) -> None:
        """Take *grant* out of the table (release or revoke)."""
        grant.released = True
        units = self._units
        for unit in grant.units:
            bucket = units[unit]
            del bucket[grant.seq]
            if not bucket:
                del units[unit]
        self._n_held -= 1

    # ------------------------------------------------------------------
    def _blocked_by_queue(self, start: int, stop: int, owner: int) -> bool:
        """FIFO fairness: an overlapping waiter ahead of us blocks us too."""
        for w in self._queue:
            if w.owner != owner and w.extent.start < stop and start < w.extent.stop:
                return True
        return False

    def _revoke_idle(
        self, owner: int, mode: LockMode, start: int, stop: int, near: list[LockGrant]
    ) -> tuple[int, bool]:
        """Drop other owners' *cached* (idle) grants among *near* that
        conflict with the request, in grant-creation order.

        Returns how many were revoked (each costs a DLM callback round
        trip) and whether a *busy* conflicting grant remains, which the
        request must wait for.
        """
        revoked = 0
        busy = False
        exclusive = mode is _EXCLUSIVE
        for g in near:
            ext = g.extent
            if g.owner == owner or not (ext.start < stop and start < ext.stop):
                continue
            if exclusive or g.mode is _EXCLUSIVE:
                if g.in_use > 0:
                    busy = True
                    continue
                self._drop(g)
                if self.audit:
                    self.history.append(
                        ("revoke", g.owner, g.mode.value, ext.start, ext.stop)
                    )
                revoked += 1
        return revoked, busy

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

        This is :meth:`acquire_nowait` followed, when it refuses, by
        :meth:`wait_for` — the two halves the storage client calls itself.
        """
        rounded = extent.align_down(self.granularity)
        proc = active_process()
        grant = self.acquire_nowait(owner, mode, rounded.start, rounded.stop, proc)
        if grant is None:
            grant = yield from self.wait_for(
                owner, mode, rounded.start, rounded.stop, proc, timeout
            )
        return grant

    def acquire_nowait(
        self, owner: int, mode: LockMode, start: int, stop: int, proc: SimProcess
    ) -> Optional[LockGrant]:
        """The non-blocking half of :meth:`acquire`, on the lock-unit
        aligned extent ``[start, stop)`` of running process *proc*.

        Returns *owner*'s cached grant covering the request (a cache hit)
        or a fresh grant, after revoking idle conflicts; ``None`` when the
        request has to queue. The acquire is then already counted and the
        caller must park in :meth:`wait_for` next.
        """
        if stop - start == self.granularity:  # one unit: _near without the call
            bucket = self._units.get(start // self.granularity)
            near = list(bucket.values()) if bucket else []
        else:
            near = self._near(start, stop)
        queue = self._queue
        exclusive = mode is _EXCLUSIVE
        for g in near:
            ext = g.extent
            if g.owner != owner or not (ext.start <= start and stop <= ext.stop):
                continue
            if exclusive and g.mode is not _EXCLUSIVE:
                continue
            # The first covering grant decides: reused unless a waiter is ahead.
            if not (queue and self._blocked_by_queue(start, stop, owner)):
                g.in_use += 1
                self.cache_hits += 1
                self._counters["pfs.lock.cache_hit"].add()
                return g
            break
        self.acquires += 1
        self._counters["pfs.lock.acquire"].add()
        if queue and self._blocked_by_queue(start, stop, owner):
            return None
        revoked, busy = self._revoke_idle(owner, mode, start, stop, near)
        if revoked:
            if self.contention_penalty:
                proc.charge(revoked * self.contention_penalty)
            self._counters["pfs.lock.revoke"].add(revoked)
        if busy:
            return None
        grant = self._file(owner, mode, Extent(start, stop))
        if self.audit:
            self.history.append(("grant", owner, mode.value, start, stop))
        return grant

    def wait_for(
        self,
        owner: int,
        mode: LockMode,
        start: int,
        stop: int,
        proc: SimProcess,
        timeout: Optional[float] = None,
    ):
        """Queue a request :meth:`acquire_nowait` refused and park until it
        is granted (coroutine returning the grant; see :meth:`acquire` for
        ``timeout``)."""
        rounded = Extent(start, stop)
        self.waits += 1
        self._counters["pfs.lock.wait"].add()
        if self.contention_penalty:
            conflicts = 0
            for g in self._near(start, stop):
                if g.owner != owner and g.extent.start < stop and start < g.extent.stop:
                    conflicts += 1
            for w in self._queue:
                if w.owner != owner and w.extent.start < stop and start < w.extent.stop:
                    conflicts += 1
            proc.charge(conflicts * self.contention_penalty)
        waiting = _Waiting(owner, mode, rounded, proc)
        self._queue.append(waiting)
        if self.audit:
            self.history.append(("wait", owner, mode.value, start, stop))
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
                self._counters["pfs.lock.timeout"].add()
                if self.audit:
                    self.history.append(("timeout", owner, mode.value, start, stop))
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
                if self.audit:
                    self.history.append(("timeout", owner, mode.value, start, stop))
                self._drain()
            elif waiting.grant is not None and not waiting.grant.released:
                self._drop(waiting.grant)
                if self.audit:
                    self.history.append(("release", owner, mode.value, start, stop))
                self._drain()
            if timer is not None:
                timer.cancel()
            raise
        if waiting.grant is None:
            raise LockTimeout(owner, rounded, timeout)
        if timer is not None:
            timer.cancel()
        return waiting.grant

    def done(self, grant: LockGrant) -> None:
        """The I/O under *grant* finished; keep the grant cached."""
        if grant.released:
            raise PfsError("done() on a released grant")
        if grant.in_use <= 0:
            raise PfsError("done() without a matching use")
        grant.in_use -= 1
        if grant.in_use == 0 and self._queue:
            self._drain()

    def release(self, grant: LockGrant) -> None:
        """Drop the grant entirely (cached or not)."""
        if grant.released:
            raise PfsError("lock released twice")
        self._drop(grant)
        if self.audit:
            ext = grant.extent
            self.history.append(
                ("release", grant.owner, grant.mode.value, ext.start, ext.stop)
            )
        self._drain()

    def _drain(self) -> None:
        """Grant queued requests FIFO until one cannot proceed."""
        queue = self._queue
        while queue:
            head = queue[0]
            start, stop = head.extent.start, head.extent.stop
            near = self._near(start, stop)
            if self._revoke_idle(head.owner, head.mode, start, stop, near)[1]:
                return
            queue.popleft()
            grant = self._file(head.owner, head.mode, head.extent)
            head.grant = grant
            if self.audit:
                self.history.append(
                    ("grant_queued", head.owner, head.mode.value, start, stop)
                )
            head.proc.wake()

    # ------------------------------------------------------------------
    @property
    def held_count(self) -> int:
        """Number of currently held (incl. cached) grants."""
        return self._n_held

    @property
    def queued_count(self) -> int:
        """Number of requests waiting FIFO."""
        return len(self._queue)


def verify_lock_history(
    history: list[tuple[str, int, str, int, int]], *, expect_drained: bool = True
) -> None:
    """Replay an audit history and raise PfsError on any invariant breach.

    Checked invariants:

    - **Mutual exclusion**: no grant ever coexists with a conflicting
      grant of another owner (overlapping extents, either exclusive).
    - **Balanced lifecycle**: every ``release``/``revoke`` matches a live
      grant, and every ``grant_queued``/``timeout`` consumes a matching
      ``wait`` entry.
    - **No orphans** (when ``expect_drained``): at the end of the history
      no ``wait`` entry remains unresolved — in particular, a timed-out
      request must have left the queue.
    """

    def conflict(a, b) -> bool:
        (ao, am, a0, a1), (bo, bm, b0, b1) = a, b
        if ao == bo or a1 <= b0 or b1 <= a0:
            return False
        return am == "exclusive" or bm == "exclusive"

    active: list[tuple[int, str, int, int]] = []
    waiting: list[tuple[int, str, int, int]] = []
    for i, (event, owner, mode, start, stop) in enumerate(history):
        key = (owner, mode, start, stop)
        if event in ("grant", "grant_queued"):
            for held in active:
                if conflict(key, held):
                    raise PfsError(
                        f"history[{i}]: grant {key} conflicts with held {held}"
                    )
            active.append(key)
            if event == "grant_queued":
                if key not in waiting:
                    raise PfsError(f"history[{i}]: grant_queued without wait: {key}")
                waiting.remove(key)
        elif event in ("release", "revoke"):
            if key not in active:
                raise PfsError(f"history[{i}]: {event} of unheld grant {key}")
            active.remove(key)
        elif event == "wait":
            waiting.append(key)
        elif event == "timeout":
            if key not in waiting:
                raise PfsError(f"history[{i}]: timeout without wait: {key}")
            waiting.remove(key)
        else:
            raise PfsError(f"history[{i}]: unknown event {event!r}")
    if expect_drained and waiting:
        raise PfsError(f"orphaned lock-queue entries at end of history: {waiting}")
