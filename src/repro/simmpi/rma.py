"""One-sided communication (MPI-2 RMA, passive target).

TCIO's level-2 traffic uses exactly this surface: ``MPI_Win_lock`` /
``MPI_Win_unlock`` (the paper rejects ``MPI_Win_fence`` because it is
collective and would break independent I/O calls), ``MPI_Put`` / ``MPI_Get``,
and indexed-datatype combining so one lock epoch moves many disjoint blocks
in a single network transfer.

The window's memory lives at the target, but the target CPU is never
involved: puts/gets are applied by the simulated NIC at delivery time, and
the per-target lock is a queue at the target that origin control messages
travel to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add
from typing import Deque, Sequence, TYPE_CHECKING

import numpy as np

from repro.faults.plan import RMA_FAIL_DELAY
from repro.sim.engine import active_process
from repro.sim.process import SimProcess
from repro.util.errors import RmaError, RmaTransientError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator

LOCK_EXCLUSIVE = 1
LOCK_SHARED = 2


@dataclass
class _LockWaiter:
    """One parked origin in a target lock's FIFO.

    ``cancelled`` marks a waiter whose process was interrupted at the
    wait point (fail-stop notification): it must never be granted the
    lock or woken — a late grant would resume the process inside some
    unrelated wait. ``granted`` records that the lock *was* acquired on
    this waiter's behalf, so the interrupt path can give it back.
    """

    proc: SimProcess
    lock_type: int
    granted: bool = False
    cancelled: bool = False


@dataclass
class _TargetLock:
    """Lock state living at one target rank of one window."""

    mode: int = 0  # 0 = free
    holders: int = 0
    waiters: Deque[_LockWaiter] = field(default_factory=deque)

    def compatible(self, lock_type: int) -> bool:
        """Whether *lock_type* can be granted alongside current holders."""
        if self.holders == 0:
            return True
        return self.mode == LOCK_SHARED and lock_type == LOCK_SHARED

    def acquire(self, lock_type: int) -> None:
        """Record one more holder of the given type."""
        self.mode = lock_type
        self.holders += 1

    def purge_cancelled(self) -> None:
        """Drop interrupted waiters from the head of the FIFO."""
        while self.waiters and self.waiters[0].cancelled:
            self.waiters.popleft()

    def release(self) -> None:
        """Drop one holder; wake compatible FIFO waiters when free."""
        if self.holders <= 0:
            raise RmaError("unlock without matching lock")
        self.holders -= 1
        if self.holders == 0:
            self.mode = 0
            # Wake waiters that are now compatible (FIFO prefix).
            while self.waiters:
                entry = self.waiters[0]
                if entry.cancelled:
                    self.waiters.popleft()
                    continue
                if not self.compatible(entry.lock_type):
                    break
                self.waiters.popleft()
                self.acquire(entry.lock_type)
                entry.granted = True
                entry.proc.wake()
                if entry.lock_type == LOCK_EXCLUSIVE:
                    break


def gather(view: memoryview, base: int, disps: Sequence[int], lens: Sequence[int]) -> bytes:
    """The blocks ``view[base + d : base + d + n]`` packed back to back, in
    order: an indexed typemap applied to a byte view, one copy per block."""
    return b"".join([view[base + d : base + d + n] for d, n in zip(disps, lens)])


def scatter(
    view: memoryview, base: int, disps: Sequence[int], lens: Sequence[int], payload: bytes
) -> None:
    """:func:`gather` inverted: *payload*'s back-to-back blocks into
    ``view[base + d : base + d + n]``, in order (on overlap the later wins)."""
    src = memoryview(payload)
    for d, n, end in zip(disps, lens, accumulate(lens)):
        view[base + d : base + d + n] = src[end - n : end]


def _check_bounds(
    op: str, remote: memoryview, base: int, disps: Sequence[int], lens: Sequence[int]
) -> None:
    """Refuse an indexed access whose blocks leave the target window."""
    if len(disps) and (
        min(lens) < 0
        or base + min(disps) < 0
        or base + max(map(add, disps, lens)) > len(remote)
    ):
        raise RmaError(f"{op} outside window: blocks at base {base} leave [0, {len(remote)})")


class _Epoch:
    """Origin-side state for one lock..unlock access epoch."""

    __slots__ = ("target", "lock_type", "last_completion", "start")

    def __init__(self, target: int, lock_type: int, start: float = 0.0):
        self.target = target
        self.lock_type = lock_type
        self.last_completion = 0.0
        self.start = start  # engine time the lock was granted


class Window:
    """A per-communicator RMA window (MPI_Win_create).

    Each rank constructs its own Window over its local exposure buffer.
    Construction is collective: use the :meth:`create` coroutine
    (``win = yield from Window.create(comm, buf)``), which barriers so the
    window id and remote buffers exist everywhere before any one-sided
    access.

    :meth:`free` (``MPI_Win_free``) withdraws the exposure: the world stops
    holding a view of the buffer, so the buffer lives exactly as long as
    its owner keeps it, and a later lock, put or get on the window raises
    :class:`~repro.util.errors.MpiError`.
    """

    def __init__(self, comm: "Communicator", buffer: np.ndarray | bytearray):
        self.comm = comm
        self.world = comm.world
        self.rank = comm.rank  # communicator-local
        self.my_world_rank = comm.world_rank(comm.rank)
        view = memoryview(buffer).cast("B")
        if view.readonly:
            raise RmaError("window buffer must be writable")
        self.win_id = self.world.register_window(self.my_world_rank, view)
        self._epochs: dict[int, _Epoch] = {}
        # Metric objects resolved once per window: every level-2 flush and
        # fetch passes through lock/put/get, and the by-name registry
        # lookups were visible in whole-run profiles.
        registry = self.world.trace.registry
        self._c_lock = registry.counter("rma.lock")
        self._c_unlock = registry.counter("rma.unlock")
        self._c_put = registry.counter("rma.put")
        self._c_put_blocks = registry.counter("rma.put_blocks")
        self._c_get = registry.counter("rma.get")
        self._c_get_blocks = registry.counter("rma.get_blocks")
        self._h_put_bytes = registry.histogram("rma.put_bytes")

    @classmethod
    def create(cls, comm: "Communicator", buffer: np.ndarray | bytearray):
        """MPI_Win_create (coroutine): register locally, then barrier.

        The barrier keeps construction collective so no rank races ahead
        and touches a window a peer has not exposed yet.
        """
        from repro.simmpi import collectives

        win = cls(comm, buffer)
        yield from collectives.barrier(comm)
        return win

    def free(self) -> None:
        """MPI_Win_free: withdraw this rank's exposure of the window.

        Local, unlike the collective MPI call: the caller synchronizes
        first (TCIO frees after the barrier that ends its close), so no
        peer can still be inside an epoch on this target. Freeing inside
        one of this rank's own epochs is an error.
        """
        if self._epochs:
            raise RmaError(f"rank {self.rank}: window freed inside an access epoch")
        self.world.free_window(self.win_id, self.my_world_rank)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def lock(self, target: int, lock_type: int = LOCK_EXCLUSIVE):
        """MPI_Win_lock(lock_type, target): begin a passive-target epoch.

        Coroutine: ``yield from win.lock(target)``.
        """
        self._check_target(target)
        if target in self._epochs:
            raise RmaError(f"rank {self.rank}: already holds a lock on target {target}")
        if lock_type not in (LOCK_EXCLUSIVE, LOCK_SHARED):
            raise RmaError(f"bad lock type {lock_type}")
        proc = active_process()
        yield from proc.settle()
        world = self.world
        target_w = self.comm.world_rank(target)
        if world.dead_ranks:
            world.check_alive(self.my_world_rank, target_w, "rma.lock")
        # The lock request is a control message to the target node.
        t_req = world.fabric.control_delay(self.my_world_rank, target_w, rma=True)
        state = world.window_lock(self.win_id, target_w)
        if state.compatible(lock_type) and not state.waiters:
            # Fast path: uncontended lock. Acquire immediately and charge
            # the request round trip lazily — no thread handoff.
            state.acquire(lock_type)
            proc.charge(max(0.0, t_req - world.engine.now))
        else:
            entry = _LockWaiter(proc, lock_type)

            def arrive() -> None:
                if entry.cancelled:
                    return
                state.purge_cancelled()
                if state.compatible(lock_type) and not state.waiters:
                    state.acquire(lock_type)
                    entry.granted = True
                    proc.wake()
                else:
                    state.waiters.append(entry)

            world.engine.schedule_at(t_req, arrive)
            try:
                yield from proc.block(
                    f"rma.lock(win={self.win_id}, target={target})"
                )
            except BaseException:
                entry.cancelled = True
                if entry.granted:
                    state.release()
                raise
        spec = world.fabric.spec
        proc.charge(
            spec.rma_epoch_overhead
            if lock_type == LOCK_EXCLUSIVE
            else spec.rma_shared_epoch_overhead
        )
        self._c_lock.add()
        self._epochs[target] = _Epoch(target, lock_type, world.engine.now)

    def unlock(self, target: int) -> None:
        """MPI_Win_unlock: complete all epoch ops, then release the lock."""
        epoch = self._epochs.pop(target, None)
        if epoch is None:
            raise RmaError(f"rank {self.rank}: unlock of target {target} without lock")
        proc = active_process()
        world = self.world
        now = world.engine.now
        # The origin's timeline must pass the last transfer's completion;
        # charge it lazily instead of parking (no thread handoff).
        if epoch.last_completion > now:
            proc.charge(epoch.last_completion - now)
        state = world.window_lock(self.win_id, self.comm.world_rank(target))
        # The release control message reaches the target after the epoch's
        # transfers have drained; other origins can acquire only then.
        release_at = max(
            world.fabric.control_delay(
                self.my_world_rank, self.comm.world_rank(target), rma=True
            ),
            epoch.last_completion,
        )
        world.engine.schedule_at(release_at, state.release)
        self._c_unlock.add()
        world.trace.complete(
            "rma.epoch", epoch.start, max(world.engine.now, release_at),
            target=target,
            mode="excl" if epoch.lock_type == LOCK_EXCLUSIVE else "shared",
        )

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def put(self, data: bytes | np.ndarray, target: int, target_offset: int) -> None:
        """MPI_Put of one contiguous block."""
        payload = bytes(memoryview(data).cast("B")) if not isinstance(data, bytes) else data
        self.put_indexed(target, target_offset, (0,), (len(payload),), payload)

    def put_indexed(
        self, target: int, base: int, disps: Sequence[int], lens: Sequence[int],
        payload: bytes,
    ) -> None:
        """One transfer landing *payload*'s back-to-back blocks at ``[base +
        d, base + d + n)`` for each ``(d, n)`` of ``zip(disps, lens)``: the
        mirror of :meth:`get_indexed`.

        This is TCIO's combining optimization: "we use MPI_Type_indexed to
        combine multiple data blocks as one derived data type instance
        [transferred] by a single one-sided communication call".
        """
        epoch = self._require_epoch(target)
        world = self.world
        target_w = self.comm.world_rank(target)
        remote = world.window_buffer(self.win_id, target_w)
        _check_bounds("put", remote, base, disps, lens)
        data = bytes(payload)  # the origin buffer may change before delivery
        total = len(data)
        self._maybe_fail("put", target_w)

        def land() -> None:
            scatter(remote, base, disps, lens, data)

        t = world.fabric.transfer(self.my_world_rank, target_w, total, land, rma=True)
        epoch.last_completion = max(epoch.last_completion, t)
        self._c_put.add(total)
        self._c_put_blocks.add(len(disps))
        self._h_put_bytes.observe(total)

    def get_indexed(
        self, target: int, base: int, disps: Sequence[int], lens: Sequence[int]
    ):
        """One transfer fetching the blocks ``[base + d, base + d + n)``
        for each ``(d, n)`` of ``zip(disps, lens)`` (``MPI_Get`` with an
        ``MPI_Type_indexed`` target datatype at displacement *base*).

        Returns the blocks packed back to back, in order, once the data
        reaches the origin. Unlike puts, gets must return data, so the call
        blocks until the response lands; it still counts as a single
        network round trip.
        """
        epoch = self._require_epoch(target)
        world = self.world
        proc = active_process()
        target_w = self.comm.world_rank(target)
        remote = world.window_buffer(self.win_id, target_w)
        total = sum(lens)
        _check_bounds("get", remote, base, disps, lens)

        self._maybe_fail("get", target_w)
        # Request travels to the target; data is snapshotted there, then
        # streams back to the origin.
        t_req = world.fabric.control_delay(self.my_world_rank, target_w, rma=True)
        result = []

        def serve() -> None:
            result.append(gather(remote, base, disps, lens))
            t_back = world.fabric.delivery_time(
                target_w, self.my_world_rank, total, rma=True
            )
            world.engine.schedule_at(t_back, lambda: proc.wake())

        world.engine.schedule_at(t_req, serve)
        yield from proc.block(f"rma.get(target={target}, bytes={total})")
        epoch.last_completion = max(epoch.last_completion, world.engine.now)
        self._c_get.add(total)
        self._c_get_blocks.add(len(disps))
        return result[0]

    # ------------------------------------------------------------------
    def _maybe_fail(self, op: str, target_w: int) -> None:
        """Injected transient put/get failure (before anything is scheduled,
        so the epoch stays consistent and the caller may simply retry)."""
        if self.world.dead_ranks:
            self.world.check_alive(self.my_world_rank, target_w, f"rma.{op}")
        plan = getattr(self.world, "faults", None)
        if plan is not None and plan.rma_fault(op, self.my_world_rank, target_w):
            active_process().charge(RMA_FAIL_DELAY)
            raise RmaTransientError(op, self.my_world_rank, target_w)

    def _require_epoch(self, target: int) -> _Epoch:
        self._check_target(target)
        epoch = self._epochs.get(target)
        if epoch is None:
            raise RmaError(
                f"rank {self.rank}: RMA access to target {target} outside a lock epoch"
            )
        return epoch

    def _check_target(self, target: int) -> None:
        if not (0 <= target < self.comm.size):
            raise RmaError(f"target rank {target} outside communicator")
