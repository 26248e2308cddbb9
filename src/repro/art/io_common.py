"""Shared pieces of the ART dump/restart drivers.

Snapshot file layout::

    [index: int64 x (1 + n_segments)]  -- n_segments, then record sizes
    [record 0][record 1]...            -- Fig. 8 records, back to back

The index is what makes the snapshot self-describing at the file level:
restart reads it, prefix-sums the record sizes, and knows every record's
offset without rebuilding any tree. Within a record, the structure arrays
(header, level sizes, flags) describe the value arrays that follow — so
restarting issues exactly the small-array read pattern the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.art.decomposition import ArtWorkload
from repro.art.ftt import FttTree
from repro.art.layout import FttRecordLayout, canonicalize, _HEADER_NBYTES
from repro.util.errors import BenchmarkError

INDEX_ENTRY = 8  # int64 per record size


def index_nbytes(n_segments: int) -> int:
    """Bytes of the snapshot's size-index block."""
    return INDEX_ENTRY * (1 + n_segments)


def record_offsets(sizes: list[int], n_segments: int) -> list[int]:
    """Absolute file offset of each record, given all record sizes."""
    if len(sizes) != n_segments:
        raise BenchmarkError("need one size per segment")
    offsets = []
    pos = index_nbytes(n_segments)
    for s in sizes:
        offsets.append(pos)
        pos += s
    return offsets


@dataclass
class LocalSegments:
    """One rank's share of the workload: built, canonical trees."""

    segments: list[int]
    trees: list[FttTree]
    sizes: list[int]  # serialized record bytes, same order as `segments`

    @property
    def total_bytes(self) -> int:
        """Serialized bytes of this rank's records."""
        return sum(self.sizes)


def build_local_segments(workload: ArtWorkload, rank: int, nranks: int) -> LocalSegments:
    """Build (and canonicalize) this rank's trees; the compute phase."""
    layout = FttRecordLayout()
    segments = workload.segments_of(rank, nranks)
    trees = [canonicalize(workload.build_tree(s)) for s in segments]
    sizes = [layout.record_nbytes(t) for t in trees]
    return LocalSegments(segments=segments, trees=trees, sizes=sizes)


def parse_index(blob: bytes, n_segments: int) -> list[int]:
    """Decode the index block into per-segment record sizes."""
    arr = np.frombuffer(blob, dtype=np.int64)
    if len(arr) != 1 + n_segments or int(arr[0]) != n_segments:
        raise BenchmarkError("corrupt snapshot index")
    return [int(x) for x in arr[1:]]


def header_prefix_nbytes() -> int:
    """Bytes of a record's descriptor header array."""
    return _HEADER_NBYTES
