"""The self-describing on-disk layout of one FTT (Fig. 8).

Both variable values and tree-structure information are recorded. One tree
serializes as an ordered run of small adjacent arrays:

* 3 structure arrays — the descriptor header (magic, fan-out, nvars,
  depth, total cells; int32), the per-level cell counts (int32), and the
  concatenated per-level refinement flags (uint8);
* then, cell by cell in canonical (level-major, parent-sorted) order, one
  float64 value array **per variable per cell**.

For the paper's sizing example — two variables, depth 6, level sizes
{1,2,4,8,16,32} (63 cells) — this yields exactly ``3 + 63*2 = 129`` arrays
of different types and sizes, matching Section V.C.

Canonical order: each level's cells sorted stably by parent index. Flags
then fully determine parent links, so structure round-trips without
storing them; :func:`canonicalize` converts any tree to this order.
"""

from __future__ import annotations

import numpy as np

from repro.art.ftt import FttError, FttLevel, FttTree

MAGIC = 0x46545431  # "FTT1"

_HEADER_NBYTES = 5 * 4  # int32 magic, oct, nvars, depth, total_cells


def _record_nbytes(depth: int, total_cells: int, nvars: int) -> int:
    """Header, level sizes, flags, then one float64 per variable per cell."""
    return _HEADER_NBYTES + depth * 4 + total_cells + total_cells * nvars * 8


def canonicalize(tree: FttTree) -> FttTree:
    """A copy with every level's cells stably sorted by parent index.

    In canonical order the children of refined cells appear grouped by
    parent, so refinement flags alone reconstruct the parent links.
    """
    out = FttTree(nvars=tree.nvars, levels=[tree.levels[0].copy()], oct=tree.oct)
    # Mapping from old cell index to new cell index on the previous level.
    prev_map = np.zeros(tree.levels[0].ncells, dtype=np.int64)
    for li in range(1, tree.depth):
        lv = tree.levels[li]
        remapped_parent = prev_map[lv.parent] if lv.ncells else lv.parent.astype(np.int64)
        order = np.argsort(remapped_parent, kind="stable")
        out.levels.append(
            FttLevel(
                variables=lv.variables[:, order].copy(),
                refined=lv.refined[order].copy(),
                parent=remapped_parent[order].astype(np.int32),
            )
        )
        inverse = np.empty(lv.ncells, dtype=np.int64)
        inverse[order] = np.arange(lv.ncells)
        prev_map = inverse
    return out


class FttRecordLayout:
    """Serializer/deserializer for the Fig. 8 record format."""

    # ------------------------------------------------------------------
    def array_count(self, tree: FttTree) -> int:
        """O(1) count: 3 structure arrays + nvars per cell."""
        return 3 + tree.total_cells * tree.nvars

    def record_nbytes(self, tree: FttTree) -> int:
        """Serialized size without materializing the arrays."""
        return _record_nbytes(tree.depth, tree.total_cells, tree.nvars)

    def array_bounds(self, tree: FttTree) -> list[int]:
        """Where each record array starts, then where the record ends:
        array ``i`` is ``serialize(tree)[b[i]:b[i + 1]]``."""
        flags = _HEADER_NBYTES + tree.depth * 4
        values = flags + tree.total_cells
        return [0, _HEADER_NBYTES, flags, *range(values, self.record_nbytes(tree) + 1, 8)]

    def serialize(self, tree: FttTree) -> bytes:
        """The whole record as one byte string.

        The tree must be in canonical order (see :func:`canonicalize`);
        the dump drivers canonicalize before writing.
        """
        header = np.array(
            [MAGIC, tree.oct, tree.nvars, tree.depth, tree.total_cells],
            dtype=np.int32,
        )
        return b"".join(
            [
                header.tobytes(),
                np.array(tree.level_sizes, dtype=np.int32).tobytes(),
                *[lv.refined.tobytes() for lv in tree.levels],
                # cell by cell, each cell's variables in order
                *[lv.variables.T.tobytes() for lv in tree.levels],
            ]
        )

    # ------------------------------------------------------------------
    def parse(self, blob: bytes | bytearray | memoryview) -> FttTree:
        """Reconstruct a canonical tree from its serialized record."""
        view = memoryview(blob)
        if len(view) < _HEADER_NBYTES:
            raise FttError(f"truncated FTT record: {len(view)} bytes")
        header = np.frombuffer(view[:_HEADER_NBYTES], dtype=np.int32)
        if header[0] != MAGIC:
            raise FttError(f"bad FTT magic 0x{int(header[0]):x}")
        oct_, nvars, depth, total_cells = (int(x) for x in header[1:])
        expected = _record_nbytes(depth, total_cells, nvars)
        if len(view) != expected:
            raise FttError(
                f"FTT record of {len(view)} bytes, its header describes {expected}"
            )
        pos = _HEADER_NBYTES
        sizes = np.frombuffer(view[pos : pos + depth * 4], dtype=np.int32)
        pos += depth * 4
        if int(sizes.sum()) != total_cells:
            raise FttError("level sizes disagree with total cell count")
        flags = np.frombuffer(view[pos : pos + total_cells], dtype=np.uint8)
        pos += total_cells
        values = np.frombuffer(
            view[pos : pos + total_cells * nvars * 8], dtype=np.float64
        )

        tree = FttTree(nvars=nvars, levels=[], oct=oct_)
        cell_base = 0
        for li in range(depth):
            n = int(sizes[li])
            lv_flags = flags[cell_base : cell_base + n].copy()
            lv_values = (
                values[cell_base * nvars : (cell_base + n) * nvars]
                .reshape(n, nvars)
                .T.copy()
            )
            if li == 0:
                parent = np.full(n, -1, dtype=np.int32)
            else:
                prev = tree.levels[li - 1]
                refined_idx = np.flatnonzero(prev.refined == 1)
                if len(refined_idx) * oct_ != n:
                    raise FttError(
                        f"level {li}: {n} cells but {len(refined_idx)} refined parents"
                    )
                parent = np.repeat(refined_idx, oct_).astype(np.int32)
            tree.levels.append(
                FttLevel(variables=lv_values, refined=lv_flags, parent=parent)
            )
            cell_base += n
        tree.check_invariants()
        return tree
