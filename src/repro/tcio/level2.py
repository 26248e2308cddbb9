"""The level-2 buffer: the shared, segment-partitioned staging area.

Each rank exposes ``segments_per_process`` segment slots through an RMA
window; global file segment ``g`` lives on rank ``g % P`` at slot
``g // P`` (equations (1)-(3)). Level-1 flushes arrive as one indexed
one-sided Put per flush; lazy reads are served with one-sided Gets after a
reader-loads-and-caches protocol fills the owning slot from storage.

A host-side :class:`SegmentDirectory` (shared across ranks through
``world.shared``) tracks which global segments are dirty (hold write data)
or loaded (hold file data). In the C library this metadata rides inside the
window itself; keeping it host-side is a simulation shortcut that does not
change any charged cost — the flag bytes would travel inside the same
transfers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Optional, Sequence

import numpy as np

from repro.obs.spans import Tracer
from repro.sim.api import run_coroutine
from repro.sim.engine import active_process
from repro.sim.sync import SimEvent
from repro.simmpi.collectives import barrier
from repro.simmpi.comm import Communicator
from repro.simmpi.rma import LOCK_EXCLUSIVE, LOCK_SHARED, Window, gather, scatter
from repro.tcio.mapping import SegmentMapping
from repro.tcio.stats import TcioStats
from repro.util.errors import RetryBudgetExceeded, RmaTransientError, TcioError


@dataclass
class SegmentDirectory:
    """Shared per-file metadata about level-2 segment contents."""

    dirty: set[int] = field(default_factory=set)  # global segments with writes
    loaded: set[int] = field(default_factory=set)  # global segments with file data
    loading: dict[int, SimEvent] = field(default_factory=dict)
    eof: int = 0  # high-water mark of written offsets (all ranks)
    #: Degradation state (fault recovery): segments whose owner was
    #: unreachable past the retry budget. ``direct`` segments bypass
    #: level 2 on reads (every rank goes straight to the PFS);
    #: ``fallback_ranges[g]`` lists (start, stop) byte ranges within
    #: segment *g* that some rank already wrote directly to the PFS, so
    #: the owner's whole-segment writeback must skip them.
    direct: set[int] = field(default_factory=set)
    fallback_ranges: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    #: Provenance of deposited write data: ``deposited[g]`` holds a ``(disp,
    #: length, src_rank)`` row per block landed in segment *g*'s owner slot
    #: since its last write-back, flat in one ``array("q")``
    #: (:meth:`note_deposit`, :meth:`note_flushed`). Crash tooling uses it
    #: to tell exactly whose bytes sat in a dead rank's volatile memory,
    #: and the fallback path checks it to report (not silently lose) data at risk.
    deposited: dict[int, array] = field(default_factory=dict)
    #: Epoched-durability state (``journal="epoch"``): the last epoch whose
    #: commit mark landed in the PFS, and the segments already journaled +
    #: written back by an earlier epoch (so later flushes skip them unless
    #: they get dirtied again).
    committed_epoch: int = 0
    flushed: set[int] = field(default_factory=set)
    #: Geometry mirror for offline crash tooling (set at collective open).
    segment_size: int = 0
    nranks: int = 0

    def note_deposit(self, g: int, disps: Sequence[int], lens: Sequence[int], src: int) -> None:
        """*src* landed the ``(disps, lens)`` blocks of segment *g* in its
        owner's slot: *g* is dirty, and the next epoch re-journals it."""
        self.dirty.add(g)
        self.flushed.discard(g)
        rows = zip(disps, lens, repeat(src))
        self.deposited.setdefault(g, array("q")).extend(chain.from_iterable(rows))

    def note_flushed(self, g: int) -> None:
        """Segment *g* was written back: its deposits are in the file, so
        its provenance rows go until a later deposit re-dirties it."""
        self.flushed.add(g)
        self.deposited.pop(g, None)


def concat_deposits(deposits: list) -> tuple[array, array, bytes]:
    """Several ``(disps, lens, payload)`` deposits of one segment as one,
    their blocks in deposit order."""
    disps, lens = array("q"), array("q")
    for d, n, _ in deposits:
        disps.extend(d)
        lens.extend(n)
    return disps, lens, b"".join([p for _, _, p in deposits])


class Level2Buffer:
    """One rank's slice of the level-2 buffer plus its transfer engine."""

    def __init__(
        self,
        comm: Communicator,
        mapping: SegmentMapping,
        segments_per_process: int,
        directory: SegmentDirectory,
        stats: TcioStats,
        *,
        use_rma: bool = True,
        combine_indexed: bool = True,
        tracer: Optional[Tracer] = None,
    ):
        self.comm = comm
        self.rank = comm.rank
        self.mapping = mapping
        self.segment_size = mapping.segment_size
        self.segments_per_process = segments_per_process
        self.directory = directory
        self.stats = stats
        self.tracer = tracer or Tracer()
        self.use_rma = use_rma
        self.combine_indexed = combine_indexed
        self.capacity = segments_per_process * self.segment_size
        self.data = np.zeros(self.capacity, dtype=np.uint8)
        self._data_view = memoryview(self.data)
        self.window = Window(comm, self.data)
        self.faults = getattr(comm.world, "faults", None)

    @classmethod
    def create(cls, *args, **kwargs):
        """Collectively construct one rank's level-2 slice (coroutine;
        takes the constructor's arguments).

        Window registration itself is local; the trailing barrier makes
        creation collective, so every rank's window exists before any
        one-sided access targets it.
        """
        buf = cls(*args, **kwargs)
        yield from barrier(buf.comm)
        return buf

    def _retry_rma(self, what: str, op):
        """Drive one RMA sequence (coroutine), retrying transient failures
        when faults are armed (RetryBudgetExceeded propagates to the
        recovery layer in tcio/degrade.py)."""
        if self.faults is None:
            return (yield from run_coroutine(op(0)))
        return (
            yield from self.faults.retry_call(
                op, retry_on=RmaTransientError, what=what
            )
        )

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------
    def _slot_base(self, global_segment: int) -> int:
        slot = self.mapping.slot_of_segment(global_segment)
        if slot >= self.segments_per_process:
            raise TcioError(
                f"segment {global_segment} needs slot {slot}, but the level-2 "
                f"buffer holds {self.segments_per_process} segments per process "
                "(raise TcioConfig.segments_per_process)"
            )
        return slot * self.segment_size

    def local_slot(self, global_segment: int) -> np.ndarray:
        """This rank's in-memory view of a segment it owns."""
        if self.mapping.owner_of_segment(global_segment) != self.rank:
            raise TcioError(f"rank {self.rank} does not own segment {global_segment}")
        base = self._slot_base(global_segment)
        return self.data[base : base + self.segment_size]

    # ------------------------------------------------------------------
    # write path: level-1 flush -> owner's slot
    # ------------------------------------------------------------------
    def push_blocks(self, global_segment: int, disps: Sequence[int],
                    lens: Sequence[int], payload: bytes):
        """Move one drained level-1 buffer (``Level1Buffer.take``'s form)
        into the owning slot (coroutine)."""
        owner = self.mapping.owner_of_segment(global_segment)
        base = self._slot_base(global_segment)
        what = f"tcio.push(seg={global_segment})"
        span = self.tracer.span(
            "tcio.push", segment=global_segment, target=owner, bytes=len(payload)
        )
        yield from self._ship(owner, base, disps, lens, payload, span, what)
        self.directory.note_deposit(global_segment, disps, lens, self.rank)

    def _ship(self, owner: int, base: int, disps: Sequence[int], lens: Sequence[int],
              payload: bytes, span, what: str):
        """Land the blocks ``(disps, lens, payload)`` at window offset *base*
        of *owner*'s slice (coroutine): a memcpy when local, else one RMA
        sequence under an exclusive lock, timed by *span*. The caller
        records provenance; :class:`RetryBudgetExceeded` propagates to it.
        """
        if owner == self.rank:
            scatter(self._data_view, base, disps, lens, payload)
            self.stats.inc("local_flushes")
        else:
            with span:
                if not self.use_rma:
                    # Ablation: pay two-sided receive-side matching costs.
                    finish = self.comm.world.charge_matching(owner)
                    now = self.comm.world.engine.now
                    if finish > now:
                        yield from active_process().sleep(finish - now)

                def attempt(_attempt: int):
                    yield from self.window.lock(owner, LOCK_EXCLUSIVE)
                    try:
                        if self.combine_indexed:
                            self.window.put_indexed(owner, base, disps, lens, payload)
                        else:
                            # Ablation: one Put per block ("a large number of
                            # network connections, which would in turn degrade
                            # performance").
                            for disp, n, end in zip(disps, lens, accumulate(lens)):
                                self.window.put(payload[end - n : end], owner, base + disp)
                    finally:
                        self.window.unlock(owner)

                yield from self._retry_rma(what, attempt)
            self.stats.inc("remote_flushes")
            self.stats.inc("put_blocks", len(disps))
        self.stats.inc("flushed_bytes", len(payload))

    # ------------------------------------------------------------------
    # read path: reader-loads-and-caches, then one-sided gets
    # ------------------------------------------------------------------
    def ensure_loaded(self, global_segment: int, pfs_read):
        """Make sure the segment's file bytes sit in its owner's slot
        (coroutine).

        ``pfs_read(extent)`` is the caller's storage reader — a coroutine
        (or plain callable) yielding the bytes, charged to the calling
        rank. Returns the raw segment
        bytes when this call performed the load (the loader can then serve
        itself without a Get); returns None when the slot was already (or
        concurrently) loaded.
        """
        d = self.directory
        if (
            global_segment in d.loaded
            or global_segment in d.dirty
            or global_segment in d.direct
        ):
            return None
        event = d.loading.get(global_segment)
        if event is not None:
            # Another rank is loading; data is ready after the fire.
            yield from event.wait()
            return None
        event = SimEvent(f"tcio.load(seg={global_segment})", sticky=True)
        d.loading[global_segment] = event
        extent = self.mapping.segment_extent(global_segment)
        with self.tracer.span(
            "tcio.segment_load", segment=global_segment, bytes=extent.length
        ):
            payload = yield from run_coroutine(pfs_read(extent))
            owner = self.mapping.owner_of_segment(global_segment)
            base = self._slot_base(global_segment)
            degraded = False
            if owner == self.rank:
                self.local_slot(global_segment)[: len(payload)] = np.frombuffer(
                    payload, dtype=np.uint8
                )
            else:

                def attempt(_attempt: int):
                    yield from self.window.lock(owner, LOCK_EXCLUSIVE)
                    try:
                        self.window.put(payload, owner, base)
                    finally:
                        self.window.unlock(owner)

                try:
                    yield from self._retry_rma(
                        f"tcio.load(seg={global_segment})", attempt
                    )
                except RetryBudgetExceeded:
                    # The owner is unreachable: don't cache in level 2 at
                    # all — mark the segment direct so every reader goes
                    # straight to the PFS (the data IS in the file).
                    degraded = True
            # The loaded flag may only become visible once the put has
            # landed; unlock charges the drain lazily, so settle before
            # publishing.
            yield from active_process().settle()
        if degraded:
            d.direct.add(global_segment)
            if self.faults is not None:
                self.faults.note_fallback(
                    "tcio.load", segment=global_segment, owner=owner
                )
        else:
            d.loaded.add(global_segment)
        del d.loading[global_segment]
        event.fire()
        self.stats.inc("segment_loads")
        return payload

    def pull_blocks(self, global_segment: int, disps: Sequence[int], lens: Sequence[int]):
        """Fetch the ``(disp, len)`` ranges of a resident segment, packed
        back to back in order (coroutine).

        Local slots are served by memcpy; remote ones with a single
        indexed one-sided Get under a shared lock.
        """
        owner = self.mapping.owner_of_segment(global_segment)
        base = self._slot_base(global_segment)
        if owner == self.rank:
            self.stats.inc("local_gets", len(disps))
            return gather(self._data_view, base, disps, lens)
        nbytes = sum(lens)
        with self.tracer.span(
            "tcio.pull", segment=global_segment, target=owner, bytes=nbytes
        ):

            def attempt(_attempt: int):
                yield from self.window.lock(owner, LOCK_SHARED)
                try:
                    if self.combine_indexed:
                        return (yield from self.window.get_indexed(owner, base, disps, lens))
                    # Ablation: one Get per block.
                    parts = []
                    for disp, ln in zip(disps, lens):
                        part = yield from self.window.get_indexed(owner, base, [disp], [ln])
                        parts.append(part)
                    return b"".join(parts)
                finally:
                    self.window.unlock(owner)

            payload = yield from self._retry_rma(
                f"tcio.pull(seg={global_segment})", attempt
            )
        self.stats.inc("get_blocks", len(disps))
        self.stats.inc("fetched_bytes", nbytes)
        return payload

    # ------------------------------------------------------------------
    def owned_dirty_segments(self) -> list[int]:
        """Global segments this rank must write back at close, in order:
        its own slots' segments ``rank + k*P`` that are dirty."""
        dirty, nranks = self.directory.dirty, self.mapping.nranks
        stop = self.segments_per_process * nranks
        return [g for g in range(self.rank, stop, nranks) if g in dirty]
