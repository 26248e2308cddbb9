"""Subarray datatype tests (the Fig. 1 volume-decomposition machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi.datatypes import BYTE, DOUBLE, INT, Subarray
from repro.util.errors import DatatypeError


def element_offsets(t):
    """Byte offset of every base element the typemap selects, in order."""
    step = t.base.extent
    return [e for off, n in t.typemap.tolist() for e in range(off, off + n, step)]


class TestSubarray2D:
    def test_interior_block(self):
        t = Subarray([4, 4], [2, 2], [1, 1], INT)
        assert t.size == 16
        assert t.extent == 64  # whole 4x4 int array
        assert t.typemap.tolist() == [[20, 8], [36, 8]]

    def test_full_array_is_contiguous(self):
        t = Subarray([3, 5], [3, 5], [0, 0], BYTE)
        assert t.typemap.tolist() == [[0, 15]]
        assert t.is_contiguous

    def test_row_slab(self):
        t = Subarray([4, 4], [1, 4], [2, 0], INT)
        assert t.typemap.tolist() == [[32, 16]]

    def test_column_slab(self):
        t = Subarray([3, 3], [3, 1], [0, 2], BYTE)
        assert t.typemap.tolist() == [[2, 1], [5, 1], [8, 1]]

    def test_1d(self):
        t = Subarray([10], [3], [4], BYTE)
        assert t.typemap.tolist() == [[4, 3]]

    def test_empty_subblock(self):
        t = Subarray([4, 4], [0, 2], [0, 0], BYTE)
        assert t.size == 0
        assert t.typemap.tolist() == []


class TestSubarray3D:
    def test_slab_decomposition(self):
        # 4x4x4 doubles; thickness-2 slab in the middle axis at y=2
        t = Subarray([4, 4, 4], [4, 2, 4], [0, 2, 0], DOUBLE)
        assert t.size == 4 * 2 * 4 * 8
        assert t.extent == 64 * 8
        # the two adjacent y-rows of each x-plane merge into one 64-byte
        # run: 4 planes -> 4 segments
        assert t.typemap[:, 1].tolist() == [64] * 4

    def test_typemap_selects_the_slab(self):
        index = np.arange(64).reshape(4, 4, 4)
        t = Subarray([4, 4, 4], [4, 1, 4], [0, 1, 0], DOUBLE)
        assert element_offsets(t) == (index[:, 1, :] * 8).ravel().tolist()


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DatatypeError):
            Subarray([4, 4], [2], [0, 0], BYTE)

    def test_block_outside_array(self):
        with pytest.raises(DatatypeError):
            Subarray([4], [3], [2], BYTE)

    def test_needs_dimensions(self):
        with pytest.raises(DatatypeError):
            Subarray([], [], [], BYTE)


class TestSubarrayProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_numpy_slicing(self, data):
        ndim = data.draw(st.integers(1, 3))
        sizes = [data.draw(st.integers(1, 5)) for _ in range(ndim)]
        subsizes = [data.draw(st.integers(0, n)) for n in sizes]
        starts = [
            data.draw(st.integers(0, n - s)) for n, s in zip(sizes, subsizes)
        ]
        t = Subarray(sizes, subsizes, starts, BYTE)
        index = np.arange(int(np.prod(sizes))).reshape(sizes)
        window = index[
            tuple(slice(st_, st_ + su) for st_, su in zip(starts, subsizes))
        ]
        assert t.size == window.size
        assert element_offsets(t) == window.ravel().tolist()
