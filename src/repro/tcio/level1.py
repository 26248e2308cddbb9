"""The level-1 buffer: per-process combining of small sequential blocks.

One reusable buffer, exactly one segment wide, aligned with whichever
level-2 segment the current writes (or recorded reads) fall into. Write
blocks land in the buffer at their displacement; the block list is kept
merged so a flush ships the fewest possible indexed blocks. For reads the
buffer stores *requests* (lazy loading): destination, length, displacement.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Optional

from repro.util.errors import TcioError


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

    def take(self) -> tuple[int, list[tuple[int, int, bytes]]]:
        """Drain the buffer for a flush.

        Returns ``(global_segment, [(disp, length, payload), ...])`` and
        leaves the buffer empty and unaligned (reusable).
        """
        if self.aligned_segment is None:
            raise TcioError("flush of an unaligned level-1 buffer")
        segment = self.aligned_segment
        view = memoryview(self.data)
        blocks = [
            (disp, length, bytes(view[disp : disp + length]))
            for disp, length in self._blocks
        ]
        view.release()
        self._blocks = []
        self.aligned_segment = None
        return segment, blocks


class ReadLog:
    """Recorded lazy reads, grouped for a fetch.

    Tracks the file-domain span of pending requests: the paper triggers
    real loading "when the file domain of cached reads exceeds the size of
    the level-1 buffer". A pending read is one entry in each of three
    parallel lists — the caller's writable buffer (the in-memory "address"
    the paper's library retains), its file offset and its length. The
    offsets and lengths are machine integers (``array("q")``), so the log
    holds one object per read (the destination view), neither a record
    around it nor the caller's boxed ints.
    """

    def __init__(self, segment_size: int):
        self.segment_size = segment_size
        self.dests: list[memoryview] = []
        self.offsets = array("q")
        self.lengths = array("q")
        self._lo = self._hi = 0

    @property
    def empty(self) -> bool:
        """Whether no lazy reads are pending."""
        return not self.dests

    def record(self, dest: memoryview, file_offset: int, length: int) -> bool:
        """Append one lazy read and widen the pending domain.

        Returns False — recording nothing — when the read would push the
        domain past one window: the caller fetches, then records again (an
        empty log takes any read).
        """
        lo, hi = file_offset, file_offset + length
        if self.dests:
            if self._lo < lo:
                lo = self._lo
            if self._hi > hi:
                hi = self._hi
            if hi - lo > self.segment_size:
                return False
        self._lo, self._hi = lo, hi
        self.dests.append(dest)
        self.offsets.append(file_offset)
        self.lengths.append(length)
        return True

    def drain(self) -> tuple[list[memoryview], array, array]:
        """Return and clear the pending reads: ``(dests, offsets, lengths)``,
        parallel and in recording order."""
        out = self.dests, self.offsets, self.lengths
        self.dests, self.offsets, self.lengths = [], array("q"), array("q")
        self._lo = self._hi = 0
        return out
