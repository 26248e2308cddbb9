"""MPI derived datatypes.

OCIO (and the MPI-IO file-view machinery it rests on) describes
noncontiguous layouts with derived datatypes; TCIO uses ``Indexed`` to
combine disjoint blocks into a single one-sided transfer. We implement the
constructors the paper's Program 2 and Section IV use — contiguous, vector,
indexed (plus subarray) — over a byte
*typemap*: an ordered ``(n, 2)`` ``int64`` table of ``(offset, length)`` byte
segments relative to the type's origin, with an *extent* giving the stride
when the type tiles.

The typemap is built arithmetically — a constructed type broadcasts its
base's table over its element shifts — flattened lazily and cached, with
adjacent segments merged in one vectorised pass. File-view translation works
on the table.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from repro.util.errors import DatatypeError
from repro.util.intervals import merge_runs


def _merge_table(table: np.ndarray) -> np.ndarray:
    """Drop empty segments of an ``(n, 2)`` table and merge adjacent ones."""
    table = table[table[:, 1] > 0]
    if len(table) < 2:
        return table
    heads = merge_runs(table[:, 0], table[:, 1])
    return np.column_stack((table[heads, 0], np.add.reduceat(table[:, 1], heads)))


def _tile_table(table: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """*table* repeated once per entry of *shifts*, offsets moved by it."""
    out = np.empty((len(shifts), len(table), 2), dtype=np.int64)
    out[:, :, 0] = shifts[:, None] + table[:, 0]
    out[:, :, 1] = table[:, 1]
    return out.reshape(-1, 2)


def _block_table(base: "Datatype", count: int) -> np.ndarray:
    """Merged table of *count* extent-tiled copies of *base*."""
    shifts = np.arange(count, dtype=np.int64) * base.extent
    return _merge_table(_tile_table(base.typemap, shifts))


class Datatype:
    """Base class: a byte typemap plus an extent."""

    #: numpy dtype for primitives (None for constructed types)
    np_dtype: np.dtype | None = None

    @property
    def size(self) -> int:
        """Total data bytes (sum of segment lengths)."""
        return self._size

    @property
    def extent(self) -> int:
        """Span the type covers when tiled (lb..ub distance)."""
        return self._extent

    @cached_property
    def typemap(self) -> np.ndarray:
        """Merged ``(n, 2)`` int64 (offset, length) table, in typemap order."""
        table = _merge_table(self._build_typemap())
        table.flags.writeable = False
        return table

    def _build_typemap(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def is_contiguous(self) -> bool:
        """True when the typemap is one segment starting at offset 0 that
        fills the whole extent (tiles with no holes)."""
        table = self.typemap
        if len(table) == 0:
            return True
        return len(table) == 1 and table[0].tolist() == [0, self.extent]

    # -- constructors matching MPI_Type_* ------------------------------
    def vector(self, count: int, blocklength: int, stride: int) -> "Vector":
        """MPI_Type_vector over this type."""
        return Vector(count, blocklength, stride, self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} size={self.size} extent={self.extent}>"


class Primitive(Datatype):
    """A named elementary type (int, double, ...)."""

    def __init__(self, name: str, nbytes: int, np_dtype: str):
        if nbytes <= 0:
            raise DatatypeError(f"{name}: non-positive size")
        self.name = name
        self._size = nbytes
        self._extent = nbytes
        self.np_dtype = np.dtype(np_dtype)

    def _build_typemap(self) -> np.ndarray:
        return np.array([[0, self._size]], dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MPI_{self.name}>"


BYTE = Primitive("BYTE", 1, "u1")
CHAR = Primitive("CHAR", 1, "i1")
SHORT = Primitive("SHORT", 2, "i2")
INT = Primitive("INT", 4, "i4")
LONG = Primitive("LONG", 8, "i8")
FLOAT = Primitive("FLOAT", 4, "f4")
DOUBLE = Primitive("DOUBLE", 8, "f8")

#: Table I's single-letter codes: c(char) s(short) i(int) f(float) d(double).
_CODE_TABLE = {"c": CHAR, "s": SHORT, "i": INT, "f": FLOAT, "d": DOUBLE, "b": BYTE}


def type_from_code(code: str) -> Primitive:
    """Resolve a Table I type letter (``"i"``, ``"d"``...) to a primitive."""
    try:
        return _CODE_TABLE[code.strip().lower()]
    except KeyError:
        raise DatatypeError(f"unknown type code {code!r}") from None


class Contiguous(Datatype):
    """``MPI_Type_contiguous``: *count* copies of *base*, extent-tiled."""

    def __init__(self, count: int, base: Datatype):
        if count < 0:
            raise DatatypeError("contiguous count must be >= 0")
        self.count = count
        self.base = base
        self._size = count * base.size
        self._extent = count * base.extent

    def _build_typemap(self) -> np.ndarray:
        return _block_table(self.base, self.count)


class Vector(Datatype):
    """``MPI_Type_vector``: *count* blocks of *blocklength* base elements,
    separated by *stride* base-extents (Program 2's filetype)."""

    def __init__(self, count: int, blocklength: int, stride: int, base: Datatype):
        if count < 0 or blocklength < 0:
            raise DatatypeError("vector count/blocklength must be >= 0")
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.base = base
        self._size = count * blocklength * base.size
        if count == 0:
            self._extent = 0
        else:
            # MPI extent: from the first byte to the last byte spanned.
            last_block_start = (count - 1) * stride * base.extent
            self._extent = last_block_start + blocklength * base.extent

    def _build_typemap(self) -> np.ndarray:
        shifts = np.arange(self.count, dtype=np.int64) * (self.stride * self.base.extent)
        return _tile_table(_block_table(self.base, self.blocklength), shifts)


class Indexed(Datatype):
    """``MPI_Type_indexed``: variable-length blocks at element displacements.

    This is the constructor TCIO uses to combine the disjoint level-1 blocks
    of one flush into a single one-sided transfer.
    """

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        base: Datatype,
    ):
        if len(blocklengths) != len(displacements):
            raise DatatypeError("indexed: blocklengths/displacements length mismatch")
        lengths = np.asarray(blocklengths, dtype=np.int64).reshape(-1)
        disps = np.asarray(displacements, dtype=np.int64).reshape(-1)
        if (lengths < 0).any():
            raise DatatypeError("indexed: negative blocklength")
        self.blocklengths = tuple(lengths.tolist())
        self.displacements = tuple(disps.tolist())
        self.base = base
        self._size = int(lengths.sum()) * base.size
        self._extent = max(0, int((disps + lengths).max(initial=0)) * base.extent)

    def _build_typemap(self) -> np.ndarray:
        # One shift per base element: block i contributes the elements
        # displacements[i] .. displacements[i] + blocklengths[i] - 1.
        lengths = np.array(self.blocklengths, dtype=np.int64)
        disps = np.array(self.displacements, dtype=np.int64)
        first = np.cumsum(lengths) - lengths  # running element index of each block
        elems = np.arange(lengths.sum(), dtype=np.int64) + np.repeat(disps - first, lengths)
        return _tile_table(self.base.typemap, elems * self.base.extent)


class Subarray(Datatype):
    """``MPI_Type_create_subarray``: an n-dimensional sub-block of an array.

    This is how applications like the paper's Fig. 1 example describe "my
    slab of the global 3D volume" as a file view: the typemap selects the
    sub-block's elements out of the row-major global array, and the extent
    is the whole array (so tiling works).
    """

    def __init__(
        self,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        base: Datatype,
    ):
        if not (len(sizes) == len(subsizes) == len(starts)):
            raise DatatypeError("subarray: dimension mismatch")
        if not sizes:
            raise DatatypeError("subarray: needs at least one dimension")
        for n, sub, st in zip(sizes, subsizes, starts):
            if n < 1 or sub < 0 or st < 0 or st + sub > n:
                raise DatatypeError(
                    f"subarray: block [{st}, {st + sub}) outside dimension of {n}"
                )
        self.sizes = tuple(int(x) for x in sizes)
        self.subsizes = tuple(int(x) for x in subsizes)
        self.starts = tuple(int(x) for x in starts)
        self.base = base
        count = 1
        for sub in self.subsizes:
            count *= sub
        total = 1
        for n in self.sizes:
            total *= n
        self._size = count * base.size
        self._extent = total * base.extent

    def _build_typemap(self) -> np.ndarray:
        # Row-major enumeration of the sub-block: the innermost dimension is
        # contiguous, so the table is one run per "row", tiled over the
        # outer-dimension offsets of every row.
        if 0 in self.subsizes:
            return np.empty((0, 2), dtype=np.int64)
        stride = self.base.extent
        rows = np.array([self.starts[-1] * stride], dtype=np.int64)
        for n, sub, start in zip(
            self.sizes[:0:-1], self.subsizes[-2::-1], self.starts[-2::-1]
        ):
            stride *= n
            steps = (start + np.arange(sub, dtype=np.int64)) * stride
            rows = np.add.outer(steps, rows).reshape(-1)
        return _tile_table(_block_table(self.base, self.subsizes[-1]), rows)

