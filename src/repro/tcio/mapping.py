"""Equations (1)-(3): logical file offset -> (rank, segment, displacement).

The level-2 buffer of each process holds multiple equal segments, and
global file segments map to processes round-robin:

    ID_rank    = (OFFSET // SIZE_segment) %  NUM_processes      (1)
    ID_segment = (OFFSET // SIZE_segment) // NUM_processes      (2)
    DISP_block =  OFFSET %  SIZE_segment                        (3)

"This design achieves good load balance ... The library can calculate
these three values in O(1) time given the logical file offset."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import TcioError
from repro.util.intervals import Extent


@dataclass(frozen=True)
class SegmentMapping:
    """The O(1) offset arithmetic for one (segment_size, nranks) pair."""

    segment_size: int
    nranks: int

    def __post_init__(self) -> None:
        if self.segment_size < 1:
            raise TcioError("segment size must be positive")
        if self.nranks < 1:
            raise TcioError("need at least one rank")

    # -- equations (1)-(3) ------------------------------------------------
    def rank_of(self, offset: int) -> int:
        """Equation (1)."""
        self._check(offset)
        return (offset // self.segment_size) % self.nranks

    def segment_of(self, offset: int) -> int:
        """Equation (2): slot index within the owner's level-2 buffer."""
        self._check(offset)
        return (offset // self.segment_size) // self.nranks

    def disp_of(self, offset: int) -> int:
        """Equation (3)."""
        self._check(offset)
        return offset % self.segment_size

    # -- derived helpers ---------------------------------------------------
    def segment_extent(self, global_segment: int) -> Extent:
        """File byte range of one global segment."""
        if global_segment < 0:
            raise TcioError("negative segment index")
        start = global_segment * self.segment_size
        return Extent(start, start + self.segment_size)

    def owner_of_segment(self, global_segment: int) -> int:
        """Equation (1) applied to a whole segment index."""
        return global_segment % self.nranks

    def slot_of_segment(self, global_segment: int) -> int:
        """Equation (2) applied to a whole segment index."""
        return global_segment // self.nranks

    def file_offset(self, rank: int, slot: int, disp: int) -> int:
        """Inverse mapping: (ID_rank, ID_segment, DISP) -> file offset."""
        if not (0 <= rank < self.nranks):
            raise TcioError(f"rank {rank} outside 0..{self.nranks - 1}")
        if slot < 0 or not (0 <= disp < self.segment_size):
            raise TcioError(f"bad (slot={slot}, disp={disp})")
        return (slot * self.nranks + rank) * self.segment_size + disp

    def locate(self, offset: int, length: int) -> list[tuple[int, int, int]]:
        """Split ``[offset, offset+length)`` at segment boundaries into
        ``(global_segment, disp, length)`` pieces (the subdivision rule:
        "If a combined data block were larger than the size of one level-2
        buffer segment, it has to be subdivided and placed in different
        segments"). The one walk behind every access that is not a single
        piece of the current segment; a piece's owner and slot are
        ``owner_of_segment``/``slot_of_segment`` of its segment."""
        if offset < 0 or length < 0:
            raise TcioError(f"negative block [{offset}, +{length})")
        seg_size = self.segment_size
        pieces = []
        pos = offset
        end = offset + length
        while pos < end:
            gseg = pos // seg_size
            seg_start = gseg * seg_size
            take = min(end, seg_start + seg_size) - pos
            pieces.append((gseg, pos - seg_start, take))
            pos += take
        return pieces

    def _check(self, offset: int) -> None:
        if offset < 0:
            raise TcioError(f"negative file offset {offset}")
