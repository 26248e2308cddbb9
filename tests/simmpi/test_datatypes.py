"""Unit + property tests for MPI derived datatypes."""

import pytest
from hypothesis import given, strategies as st

from repro.simmpi.datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    SHORT,
    Contiguous,
    Indexed,
    Vector,
    type_from_code,
)
from repro.util.errors import DatatypeError


class TestPrimitives:
    @pytest.mark.parametrize(
        "t,size", [(BYTE, 1), (CHAR, 1), (SHORT, 2), (INT, 4), (FLOAT, 4), (DOUBLE, 8), (LONG, 8)]
    )
    def test_sizes(self, t, size):
        assert t.size == size
        assert t.extent == size
        assert t.typemap.tolist() == [[0, size]]
        assert t.is_contiguous

    def test_type_from_code(self):
        assert type_from_code("i") is INT
        assert type_from_code("d") is DOUBLE
        assert type_from_code(" F ") is FLOAT

    def test_type_from_code_rejects_unknown(self):
        with pytest.raises(DatatypeError):
            type_from_code("z")


class TestContiguous:
    def test_merges_into_one_segment(self):
        t = Contiguous(5, INT)
        assert t.size == 20
        assert t.extent == 20
        assert t.typemap.tolist() == [[0, 20]]

    def test_zero_count(self):
        t = Contiguous(0, INT)
        assert t.size == 0
        assert t.typemap.tolist() == []

    def test_nested(self):
        t = Contiguous(2, Contiguous(3, SHORT))
        assert t.size == 12
        assert t.typemap.tolist() == [[0, 12]]


class TestVector:
    def test_fig2_filetype(self):
        # Program 2: vector(LEN/SA, 1, num_procs, etype) with 12-byte etype.
        etype = Contiguous(12, BYTE)
        ft = etype.vector(3, 1, 2)
        assert ft.size == 36
        assert ft.typemap.tolist() == [[0, 12], [24, 12], [48, 12]]
        assert ft.extent == 60

    def test_unit_stride_is_contiguous(self):
        t = INT.vector(4, 1, 1)
        assert t.typemap.tolist() == [[0, 16]]
        assert t.is_contiguous

    def test_blocklength_over_one(self):
        t = INT.vector(2, 2, 3)
        assert t.typemap.tolist() == [[0, 8], [12, 8]]


class TestIndexed:
    def test_blocks_at_displacements(self):
        t = Indexed([2, 1], [0, 5], INT)
        assert t.typemap.tolist() == [[0, 8], [20, 4]]
        assert t.size == 12
        assert t.extent == 24

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatatypeError):
            Indexed([1, 2], [0], INT)

    def test_negative_blocklength_rejected(self):
        with pytest.raises(DatatypeError):
            Indexed([-1], [0], INT)


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------

primitive_types = st.sampled_from([BYTE, CHAR, SHORT, INT, FLOAT, DOUBLE, LONG])


@st.composite
def datatypes(draw, depth=2):
    if depth == 0:
        return draw(primitive_types)
    base = draw(datatypes(depth=depth - 1))
    kind = draw(st.sampled_from(["prim", "contig", "vector", "indexed"]))
    if kind == "prim":
        return base
    if kind == "contig":
        return Contiguous(draw(st.integers(0, 4)), base)
    if kind == "vector":
        count = draw(st.integers(0, 4))
        blocklength = draw(st.integers(0, 3))
        stride = draw(st.integers(blocklength, blocklength + 4))
        return Vector(count, blocklength, stride, base)
    n = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    disps = sorted(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n, unique=True)))
    # keep blocks disjoint: displacement gaps of at least the block length
    disps = [d * 4 for d in range(n)]
    return Indexed(lengths, disps, base)


class TestDatatypeProperties:
    @given(datatypes())
    def test_size_equals_segment_total(self, t):
        assert t.size == int(t.typemap[:, 1].sum())

    @given(datatypes())
    def test_segments_fit_in_extent(self, t):
        for off, length in t.typemap.tolist():
            assert off >= 0
            assert off + length <= max(t.extent, off + length)

    @given(datatypes(), st.integers(1, 3))
    def test_contiguous_scales_linearly(self, t, n):
        if t.size == 0:
            return
        c = Contiguous(n, t)
        assert c.size == n * t.size
        assert c.extent == n * t.extent
