"""File views: mapping a linear data stream onto noncontiguous file bytes.

A view is ``(displacement, etype, filetype)``: the file appears to the rank
as the concatenation of the *data* bytes of successive filetype tiles,
starting at byte *displacement*. MPI file offsets count **etypes** within
that stream. ``map_arrays`` translates a (stream position, byte count)
pair into the absolute file pieces it touches, whole, as three ``int64``
arrays — the single primitive both independent and collective I/O build
on. ``map_pieces`` and ``map_extents`` are its list spellings.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.simmpi.datatypes import BYTE, Datatype
from repro.util.errors import MpiIoError
from repro.util.intervals import Extent, merge_runs

Pieces = tuple[np.ndarray, np.ndarray, np.ndarray]


def _one_piece(file_start: int, nbytes: int) -> Pieces:
    """A whole request that is one file piece, at buffer offset 0."""
    return (
        np.array([file_start], dtype=np.int64),
        np.array([nbytes], dtype=np.int64),
        np.zeros(1, dtype=np.int64),
    )


class FileView:
    """An immutable view; create via :meth:`repro.mpiio.file.MpiFile.set_view`."""

    def __init__(
        self,
        displacement: int = 0,
        etype: Datatype = BYTE,
        filetype: Optional[Datatype] = None,
    ):
        if displacement < 0:
            raise MpiIoError(f"negative view displacement {displacement}")
        filetype = etype if filetype is None else filetype
        if etype.size <= 0:
            raise MpiIoError("etype must have positive size")
        if filetype.size % etype.size != 0:
            raise MpiIoError(
                f"filetype size {filetype.size} is not a multiple of etype size {etype.size}"
            )
        if filetype.size == 0:
            raise MpiIoError("filetype must contain data")
        self.displacement = displacement
        self.etype = etype
        self.filetype = filetype
        # Segment table of one filetype tile, with cumulative data offsets.
        self._seg_off = filetype.typemap[:, 0]
        self._seg_len = filetype.typemap[:, 1]
        self._cum = np.concatenate(([0], np.cumsum(self._seg_len)))
        self._tile_data = filetype.size
        self._tile_extent = filetype.extent
        self._contiguous = filetype.is_contiguous

    @property
    def is_contiguous(self) -> bool:
        """Whether the view maps the stream to one unbroken byte range."""
        return self._contiguous

    # ------------------------------------------------------------------
    def byte_offset(self, offset_etypes: int) -> int:
        """Stream byte position of an MPI offset (counted in etypes)."""
        if offset_etypes < 0:
            raise MpiIoError(f"negative file offset {offset_etypes}")
        return offset_etypes * self.etype.size

    def map_arrays(self, stream_pos: int, nbytes: int) -> Pieces:
        """The file pieces of stream bytes [stream_pos, +nbytes), whole.

        Three parallel ``int64`` arrays in stream order: each piece's
        absolute file start, its length, and the offset of its first byte
        *within the request's data buffer* — what scatter/gather and
        two-phase splitting need. Adjacent-in-file pieces are merged; merged
        pieces always map contiguous buffer ranges, because only
        stream-consecutive pieces merge. Holes of the filetype consume no
        stream bytes, so a range never "straddles" one: it skips it.

        Two inputs need no table walk and leave in O(1): a contiguous view,
        and a request that ends inside the segment it starts in.
        """
        if stream_pos < 0 or nbytes < 0:
            raise MpiIoError(f"bad view range [{stream_pos}, +{nbytes})")
        if nbytes == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        if self._contiguous:
            return _one_piece(self.displacement + stream_pos, nbytes)
        cum, seg_off, seg_len = self._cum, self._seg_off, self._seg_len
        tile, within = divmod(stream_pos, self._tile_data)
        seg = int(cum.searchsorted(within, "right")) - 1
        into_seg = within - int(cum[seg])
        if into_seg + nbytes <= seg_len[seg]:
            return _one_piece(
                self.displacement + tile * self._tile_extent + int(seg_off[seg]) + into_seg,
                nbytes,
            )
        # Every segment from the first touched to the last, numbered through
        # the tiles; the request clips the first and the last of them.
        stop = stream_pos + nbytes
        last_tile, last_within = divmod(stop - 1, self._tile_data)
        last_seg = int(cum.searchsorted(last_within, "right")) - 1
        nseg = len(seg_len)
        tiles, segs = np.divmod(
            np.arange(tile * nseg + seg, last_tile * nseg + last_seg + 1), nseg
        )
        seg_pos = tiles * self._tile_data + cum[segs]  # stream position
        lo = np.maximum(seg_pos, stream_pos)
        lengths = np.minimum(seg_pos + seg_len[segs], stop) - lo
        starts = (
            self.displacement + tiles * self._tile_extent + seg_off[segs] + (lo - seg_pos)
        )
        heads = merge_runs(starts, lengths)
        return starts[heads], np.add.reduceat(lengths, heads), lo[heads] - stream_pos

    def map_pieces(self, stream_pos: int, nbytes: int) -> list[tuple[Extent, int]]:
        """:meth:`map_arrays` as a list of ``(file extent, buffer offset)``."""
        starts, lengths, mems = self.map_arrays(stream_pos, nbytes)
        return [
            (Extent(start, start + length), mem)
            for start, length, mem in zip(starts.tolist(), lengths.tolist(), mems.tolist())
        ]

    def map_extents(self, stream_pos: int, nbytes: int) -> list[Extent]:
        """Absolute file extents for stream bytes [stream_pos, +nbytes), in
        stream order."""
        return [ext for ext, _ in self.map_pieces(stream_pos, nbytes)]

    def map_etype_extents(self, offset_etypes: int, count_etypes: int) -> list[Extent]:
        """map_extents with MPI units: offset and count in etypes."""
        return self.map_extents(
            self.byte_offset(offset_etypes), count_etypes * self.etype.size
        )

    def stream_size_for(self, extent_stop: int) -> int:
        """How many stream bytes map below absolute file offset *extent_stop*
        (used to size reads that must cover a view region)."""
        if extent_stop <= self.displacement:
            return 0
        span = extent_stop - self.displacement
        tiles, rem = divmod(span, self._tile_extent) if self._tile_extent else (0, span)
        below = np.clip(rem - self._seg_off, 0, self._seg_len)
        return tiles * self._tile_data + int(below.sum())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FileView disp={self.displacement} etype={self.etype.size}B "
            f"tile={self._tile_data}B/{self._tile_extent}B>"
        )
