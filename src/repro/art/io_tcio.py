"""ART dump/restart through TCIO.

"The only thing that the application needs to do is to output each piece
of data individually and TCIO will handle collective I/O operations
transparently" (Section V.C). The dump seeks to each record and streams its
arrays with plain sequential ``tcio_write``; the restart reads the index,
then each record's structure arrays, then every value array individually —
all recorded lazily and satisfied by ``tcio_fetch``.
"""

from __future__ import annotations

import numpy as np

from repro.art.decomposition import ArtWorkload
from repro.art.ftt import FttTree
from repro.art.io_common import (
    INDEX_ENTRY,
    LocalSegments,
    header_prefix_nbytes,
    index_nbytes,
    parse_index,
    record_offsets,
)
from repro.art.layout import FttRecordLayout
from repro.simmpi import collectives
from repro.simmpi.mpi import RankEnv
from repro.tcio import (
    TCIO_RDONLY,
    TCIO_WRONLY,
    TcioConfig,
    TcioFile,
)
from repro.util.errors import BenchmarkError


def _tcio_config(env: RankEnv, file_bytes: int) -> TcioConfig:
    stripe = env.pfs.spec.stripe_size
    return TcioConfig.sized_for(max(file_bytes, stripe), env.size, stripe)


def dump(
    env: RankEnv,
    workload: ArtWorkload,
    local: LocalSegments,
    name: str,
    *,
    per_array_cost: float = 0.0,
) -> dict:
    """Write the snapshot; returns TCIO stats of this rank's handle.

    ``per_array_cost`` charges the application's marshalling work per
    record array (FTT traversal, offset computation, staging).
    """
    comm = env.comm
    layout = FttRecordLayout()
    all_sizes = yield from _exchange_sizes(comm, workload, local)
    offsets = record_offsets(all_sizes, workload.n_segments)
    total = index_nbytes(workload.n_segments) + sum(all_sizes)

    fh = yield from TcioFile.open(env, name, TCIO_WRONLY, _tcio_config(env, total))
    try:
        if env.rank == 0:
            yield from fh.write_at(0, np.array([workload.n_segments], dtype=np.int64))
        for seg, size in zip(local.segments, local.sizes):
            yield from fh.write_at(
                INDEX_ENTRY * (1 + seg), np.array([size], dtype=np.int64)
            )
        for seg, tree in zip(local.segments, local.trees):
            fh.seek(offsets[seg])
            record = np.frombuffer(layout.serialize(tree), dtype=np.uint8)
            bounds = layout.array_bounds(tree)
            env.compute(per_array_cost * layout.array_count(tree))
            for start, stop in zip(bounds, bounds[1:]):  # one write per array
                yield from fh.write(record[start:stop])
    except BaseException:
        fh.abort()
        raise
    yield from fh.close()
    return fh.stats.as_dict()


def restart(
    env: RankEnv,
    workload: ArtWorkload,
    name: str,
    *,
    verify: bool = True,
    per_array_cost: float = 0.0,
) -> dict:
    """Read this rank's records back; optionally verify tree equality."""
    comm = env.comm
    layout = FttRecordLayout()
    pfs_size = env.pfs.lookup(name).size
    fh = yield from TcioFile.open(env, name, TCIO_RDONLY, _tcio_config(env, pfs_size))
    try:
        # Phase 1: the index (sizes of every record).
        idx_buf = bytearray(index_nbytes(workload.n_segments))
        yield from fh.read_at(0, idx_buf)
        yield from fh.fetch()
        sizes = parse_index(bytes(idx_buf), workload.n_segments)
        offsets = record_offsets(sizes, workload.n_segments)

        my_segments = workload.segments_of(env.rank, comm.size)
        head = header_prefix_nbytes()
        trees: list[FttTree] = []
        for seg in my_segments:
            base = offsets[seg]
            record = bytearray(sizes[seg])
            view = memoryview(record)
            # Phase 2: the record's descriptor header.
            yield from fh.read_at(base, view[:head])
            yield from fh.fetch()
            _magic, _oct, nvars, depth, total_cells = view[:head].cast("i")
            # Phase 3: level sizes + refinement flags.
            values = head + depth * 4 + total_cells
            yield from fh.read_at(base + head, view[head:values])
            yield from fh.fetch()
            # Phase 4: each value array individually (the paper's small
            # reads), straight into its 8 bytes of the record.
            env.compute(per_array_cost * (3 + total_cells * nvars))
            for start in range(values, len(record), 8):
                yield from fh.read_at(base + start, view[start : start + 8])
            yield from fh.fetch()
            trees.append(layout.parse(record))
    except BaseException:
        fh.abort()
        raise
    yield from fh.close()

    if verify:
        _verify_trees(workload, my_segments, trees)
    return fh.stats.as_dict()


def _exchange_sizes(comm, workload: ArtWorkload, local: LocalSegments):
    """Allgather every record's serialized size (rank order -> file order)."""
    mine = list(zip(local.segments, local.sizes))
    gathered = yield from collectives.allgather(comm, mine)
    all_sizes = [0] * workload.n_segments
    for pairs in gathered:
        for seg, size in pairs:
            all_sizes[seg] = size
    if any(s <= 0 for s in all_sizes):
        raise BenchmarkError("a segment has no owner")
    return all_sizes


def _verify_trees(workload: ArtWorkload, segments: list[int], trees: list[FttTree]) -> None:
    from repro.art.layout import canonicalize

    for seg, got in zip(segments, trees):
        expected = canonicalize(workload.build_tree(seg))
        if got != expected:
            raise BenchmarkError(f"segment {seg}: restart mismatch")
