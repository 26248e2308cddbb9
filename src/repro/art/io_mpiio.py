"""ART dump/restart through vanilla (independent) MPI-IO — the Fig. 9/10
baseline: every small array is its own ``write_at``/``read_at``, paying
per-request storage overhead and stripe-lock contention with every other
rank's interleaved records.
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
from repro.art.io_tcio import _exchange_sizes, _verify_trees
from repro.art.layout import FttRecordLayout
from repro.mpiio import MpiFile, MODE_CREATE, MODE_RDONLY, MODE_RDWR
from repro.simmpi.mpi import RankEnv


def dump(
    env: RankEnv,
    workload: ArtWorkload,
    local: LocalSegments,
    name: str,
    *,
    per_array_cost: float = 0.0,
) -> dict:
    """Write the snapshot with one independent write per record array."""
    layout = FttRecordLayout()
    all_sizes = yield from _exchange_sizes(env.comm, workload, local)
    offsets = record_offsets(all_sizes, workload.n_segments)

    fh = yield from MpiFile.open(env, name, MODE_RDWR | MODE_CREATE)
    writes = 0
    if env.rank == 0:
        yield from fh.write_at(0, np.array([workload.n_segments], dtype=np.int64))
        writes += 1
    for seg, size in zip(local.segments, local.sizes):
        yield from fh.write_at(INDEX_ENTRY * (1 + seg), np.array([size], dtype=np.int64))
        writes += 1
    for seg, tree in zip(local.segments, local.trees):
        env.compute(per_array_cost * layout.array_count(tree))
        record = np.frombuffer(layout.serialize(tree), dtype=np.uint8)
        bounds = layout.array_bounds(tree)
        for start, stop in zip(bounds, bounds[1:]):
            yield from fh.write_at(offsets[seg] + start, record[start:stop])
            writes += 1
    yield from fh.close()
    return {"write_calls": writes}


def restart(
    env: RankEnv,
    workload: ArtWorkload,
    name: str,
    *,
    verify: bool = True,
    per_array_cost: float = 0.0,
) -> dict:
    """Read records back with per-array independent reads; verify trees."""
    layout = FttRecordLayout()
    fh = yield from MpiFile.open(env, name, MODE_RDONLY)
    reads = 1
    idx = yield from fh.read_at(0, index_nbytes(workload.n_segments))
    sizes = parse_index(idx, workload.n_segments)
    offsets = record_offsets(sizes, workload.n_segments)

    my_segments = workload.segments_of(env.rank, env.comm.size)
    head = header_prefix_nbytes()
    trees: list[FttTree] = []
    for seg in my_segments:
        base = offsets[seg]
        record = bytearray(sizes[seg])
        view = memoryview(record)
        view[:head] = yield from fh.read_at(base, head)
        _magic, _oct, nvars, depth, total_cells = view[:head].cast("i")
        values = head + depth * 4 + total_cells
        view[head:values] = yield from fh.read_at(base + head, values - head)
        reads += 2
        env.compute(per_array_cost * (3 + total_cells * nvars))
        for start in range(values, len(record), 8):
            view[start : start + 8] = yield from fh.read_at(base + start, 8)
            reads += 1
        trees.append(layout.parse(record))
    yield from fh.close()

    if verify:
        _verify_trees(workload, my_segments, trees)
    return {"read_calls": reads}
