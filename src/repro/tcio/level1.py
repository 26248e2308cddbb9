"""The level-1 buffer: per-process combining of small sequential blocks.

One reusable buffer, exactly one segment wide, aligned with whichever
level-2 segment the current writes (or recorded reads) fall into. Write
blocks land in the buffer at their displacement; the block list is kept
merged so a flush ships the fewest possible indexed blocks. For reads the
log stores *requests* (lazy loading): address, length, file offset.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from ctypes import addressof, c_char
from typing import Optional

import numpy as np

from repro.simmpi.rma import gather
from repro.util.errors import TcioError

#: ``addressof(_from_buffer(view))``: where a writable, non-empty buffer's
#: first byte lives (the ``c_char`` is only a handle on that address).
_from_buffer = c_char.from_buffer
#: ``(address, bytes, index)`` of a base no destination lies inside.
_NOWHERE = (0, -1, -1)


class Level1Buffer:
    """The write-side combining buffer (one per TCIO handle)."""

    def __init__(self, segment_size: int):
        if segment_size < 1:
            raise TcioError("segment size must be positive")
        self.segment_size = segment_size
        # A bytearray, not a numpy array: the hot path copies blocks of a
        # few bytes each, where buffer-protocol slice assignment is several
        # times cheaper than np.frombuffer + fancy indexing.
        self.data = bytearray(segment_size)
        self.aligned_segment: Optional[int] = None  # global segment index
        self._blocks: list[tuple[int, int]] = []  # merged (disp, length)

    @property
    def empty(self) -> bool:
        """Whether nothing is buffered/recorded."""
        return not self._blocks

    def align(self, global_segment: int) -> None:
        """Align the (empty) buffer with a level-2 segment."""
        if not self.empty:
            raise TcioError("cannot realign a non-empty level-1 buffer")
        self.aligned_segment = global_segment

    def place(self, disp: int, payload: memoryview | bytes) -> None:
        """Copy one block into the buffer at its segment displacement."""
        length = len(payload)
        if self.aligned_segment is None:
            raise TcioError("level-1 buffer is not aligned to a segment")
        if disp < 0 or disp + length > self.segment_size:
            raise TcioError(
                f"block [{disp}, +{length}) outside segment of {self.segment_size}"
            )
        self.data[disp : disp + length] = payload
        # Ascending writes (Program 3) extend or follow the last merged
        # block; anything else goes through the general merge.
        blocks = self._blocks
        if blocks and length:
            last, last_len = blocks[-1]
            if disp == last + last_len:
                blocks[-1] = (last, last_len + length)
                return
            if disp > last + last_len:
                blocks.append((disp, length))
                return
        self._insert_block(disp, length)

    def _insert_block(self, disp: int, length: int) -> None:
        """Keep the block list sorted and merged (overlaps coalesce).

        Bisect insertion with a local splice: O(log n) to find the slot
        plus one C-level list splice, instead of rebuilding the whole
        merged list per insert — the strided write patterns of Fig. 2
        grow hundreds of disjoint blocks per segment, which made the
        rebuild the simulator's hottest rank-side function.
        """
        if length == 0:
            return
        blocks = self._blocks
        lo, hi = disp, disp + length
        i = bisect_left(blocks, (lo,))
        # A left neighbor that touches [lo, hi) joins the merge window.
        if i > 0 and blocks[i - 1][0] + blocks[i - 1][1] >= lo:
            i -= 1
            lo = blocks[i][0]
        # Absorb every following block that starts inside (or adjacent to)
        # the window, widening it as overlapping tails extend past hi.
        j = i
        n = len(blocks)
        while j < n and blocks[j][0] <= hi:
            b_hi = blocks[j][0] + blocks[j][1]
            if b_hi > hi:
                hi = b_hi
            j += 1
        blocks[i:j] = [(lo, hi - lo)]

    def take(self) -> tuple[int, array, array, bytes]:
        """Drain the buffer for a flush.

        Returns ``(global_segment, disps, lens, payload)``, one indexed
        Put: the merged blocks as ``array("q")`` columns, their bytes
        packed back to back. Leaves the buffer empty and unaligned.
        """
        if self.aligned_segment is None:
            raise TcioError("flush of an unaligned level-1 buffer")
        segment = self.aligned_segment
        disps = array("q", [disp for disp, _ in self._blocks])
        lens = array("q", [length for _, length in self._blocks])
        payload = gather(memoryview(self.data), 0, disps, lens)
        self._blocks = []
        self.aligned_segment = None
        return segment, disps, lens, payload


class ReadLog:
    """Recorded lazy reads, grouped for a fetch.

    Tracks the file-domain span of pending requests: the paper triggers
    real loading "when the file domain of cached reads exceeds the size of
    the level-1 buffer". A pending read is "(address, length, offset)",
    the in-memory address the paper's library retains, literally: four
    machine integers, one entry in each of four parallel ``array("q")``
    columns — which held base buffer it writes into (``which``) and its
    byte offset in that base (``at``), together its address, then its
    file offset and its length.

    A base is one flat byte view per memory owner — the destination's
    exporter (``dest.obj``), or the root array of a NumPy view — not one
    per read. A read's ``at`` is its destination's address minus its
    base's, taken once when it is recorded and checked against the base's
    bounds; it is never dereferenced: the fetch writes through the held
    base view, and the held view keeps the owner alive and its memory in
    place (a ``bytearray`` with a pending read cannot be resized). A
    destination whose owner does not cast to a flat, writable byte view,
    or that does not lie inside it, is its own base. The bases the last
    two reads landed in are tried first, by address alone.
    """

    def __init__(self, segment_size: int):
        self.segment_size = segment_size
        self.bases: list[memoryview] = []
        self.which = array("q")
        self.at = array("q")
        self.offsets = array("q")
        self.lengths = array("q")
        # id(exporter) -> (base address, base bytes, base index); a held
        # view keeps every exporter here alive, so its id is stable
        self._held: dict[int, tuple[int, int, int]] = {}
        # the bases the last two lookups found, tried before the exporter
        self._near = self._far = _NOWHERE
        self._lo = self._hi = 0

    @property
    def empty(self) -> bool:
        """Whether no lazy reads are pending."""
        return not self.offsets

    def record(self, dest: memoryview, file_offset: int, length: int) -> bool:
        """Append one lazy read of *length* bytes into the writable flat
        byte view *dest* and widen the pending domain.

        Returns False — recording nothing — when the read would push the
        domain past one window: the caller fetches, then records again (an
        empty log takes any read).
        """
        lo, hi = file_offset, file_offset + length
        if self.offsets:
            if self._lo < lo:
                lo = self._lo
            if self._hi > hi:
                hi = self._hi
            if hi - lo > self.segment_size:
                return False
        self._lo, self._hi = lo, hi
        addr = addressof(_from_buffer(dest))
        start, size, which = self._near
        if not start <= addr <= start + size - length:
            start, size, which = self._far
            if not start <= addr <= start + size - length:
                start, size, which = self._find(dest, addr, length)
        self.which.append(which)
        self.at.append(addr - start)
        self.offsets.append(file_offset)
        self.lengths.append(length)
        return True

    def _find(self, dest: memoryview, addr: int, length: int) -> tuple[int, int, int]:
        """The base *dest* lies in: its exporter's, held on first use, or —
        when it does not lie inside that — *dest* itself as a new base."""
        exporter = _owner(dest.obj)
        found = self._held.get(id(exporter))
        if found is None:
            found = self._hold(exporter)
        start, size, _ = found
        if not start <= addr <= start + size - length:
            found = (addr, length, len(self.bases))
            self.bases.append(dest)
        self._near, self._far = found, self._near
        return found

    def _hold(self, exporter) -> tuple[int, int, int]:
        """Hold one flat, writable byte view of *exporter* as a new base;
        an exporter that has none gets an entry no destination lies in."""
        held = _NOWHERE
        try:
            base = memoryview(exporter).cast("B")
        except (TypeError, ValueError):  # not C-contiguous, or no native format
            pass
        else:
            if not base.readonly and base.nbytes:
                held = (addressof(_from_buffer(base)), base.nbytes, len(self.bases))
                self.bases.append(base)
        self._held[id(exporter)] = held
        return held

    def drain(self) -> tuple[list[memoryview], array, array, array, array]:
        """Return and clear the pending reads: ``(bases, which, at,
        offsets, lengths)``, the four columns parallel and in recording
        order."""
        out = self.bases, self.which, self.at, self.offsets, self.lengths
        self.bases = []
        self.which, self.at = array("q"), array("q")
        self.offsets, self.lengths = array("q"), array("q")
        self._held = {}
        self._near = self._far = _NOWHERE
        self._lo = self._hi = 0
        return out


def _owner(exporter):
    """What *exporter*'s memory belongs to: the root of a NumPy view chain
    (so slices of one array share a base), else the exporter itself."""
    while isinstance(exporter, np.ndarray) and exporter.base is not None:
        exporter = exporter.base
    return exporter
