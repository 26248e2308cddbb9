"""Equations (1)-(3) and the segment mapping."""

import pytest
from hypothesis import given, strategies as st

from repro.tcio.mapping import SegmentMapping
from repro.util.errors import TcioError


class TestEquations:
    """The paper's worked structure: offsets map round-robin over ranks."""

    def test_equation_1_rank(self):
        m = SegmentMapping(segment_size=100, nranks=4)
        assert [m.rank_of(o) for o in (0, 100, 200, 300, 400)] == [0, 1, 2, 3, 0]

    def test_equation_2_segment(self):
        m = SegmentMapping(segment_size=100, nranks=4)
        assert m.segment_of(0) == 0
        assert m.segment_of(399) == 0
        assert m.segment_of(400) == 1
        assert m.segment_of(850) == 2

    def test_equation_3_disp(self):
        m = SegmentMapping(segment_size=100, nranks=4)
        assert m.disp_of(0) == 0
        assert m.disp_of(123) == 23
        assert m.disp_of(999) == 99

    def test_single_rank_owns_everything(self):
        m = SegmentMapping(segment_size=10, nranks=1)
        assert all(m.rank_of(o) == 0 for o in range(0, 100, 7))

    def test_negative_offset_rejected(self):
        m = SegmentMapping(10, 2)
        with pytest.raises(TcioError):
            m.rank_of(-1)

    def test_validation(self):
        with pytest.raises(TcioError):
            SegmentMapping(0, 1)
        with pytest.raises(TcioError):
            SegmentMapping(10, 0)


class TestDerived:
    def test_inverse_mapping(self):
        m = SegmentMapping(segment_size=100, nranks=4)
        assert m.file_offset(rank=2, slot=1, disp=30) == (1 * 4 + 2) * 100 + 30

    def test_inverse_validation(self):
        m = SegmentMapping(100, 4)
        with pytest.raises(TcioError):
            m.file_offset(4, 0, 0)
        with pytest.raises(TcioError):
            m.file_offset(0, 0, 100)
        with pytest.raises(TcioError):
            m.file_offset(0, -1, 0)

    def test_segment_extent(self):
        m = SegmentMapping(100, 4)
        e = m.segment_extent(3)
        assert (e.start, e.stop) == (300, 400)

    def test_locate_splits_at_segment_boundaries(self):
        m = SegmentMapping(segment_size=100, nranks=2)
        locs = list(m.locate(150, 200))  # spans segments 1, 2, 3
        assert locs == [(1, 50, 50), (2, 0, 100), (3, 0, 50)]
        assert [
            (m.owner_of_segment(g), m.slot_of_segment(g), disp, length)
            for g, disp, length in locs
        ] == [
            (1, 0, 50, 50),
            (0, 1, 0, 100),
            (1, 1, 0, 50),
        ]

    def test_locate_within_one_segment(self):
        m = SegmentMapping(100, 2)
        [(gseg, disp, length)] = m.locate(210, 50)
        assert (m.owner_of_segment(gseg), m.slot_of_segment(gseg), disp, length) == (
            0, 1, 10, 50,
        )


class TestMappingProperties:
    @given(st.integers(0, 10**7), st.integers(1, 1 << 20), st.integers(1, 1024))
    def test_bijection(self, offset, segment_size, nranks):
        m = SegmentMapping(segment_size, nranks)
        rank = m.rank_of(offset)
        slot = m.segment_of(offset)
        disp = m.disp_of(offset)
        assert 0 <= rank < nranks
        assert 0 <= disp < segment_size
        assert m.file_offset(rank, slot, disp) == offset

    @given(st.integers(0, 10**5), st.integers(0, 5000), st.integers(1, 64), st.integers(1, 16))
    def test_locate_covers_range_exactly(self, offset, length, segment_size, nranks):
        m = SegmentMapping(segment_size, nranks)
        locs = list(m.locate(offset, length))
        assert sum(take for _, _, take in locs) == length
        pos = offset
        for gseg, disp, take in locs:
            assert m.rank_of(pos) == m.owner_of_segment(gseg)
            assert m.segment_of(pos) == m.slot_of_segment(gseg)
            assert m.disp_of(pos) == disp
            # no piece crosses a segment boundary
            assert disp + take <= segment_size
            pos += take

    @given(st.integers(1, 100), st.integers(1, 32))
    def test_round_robin_balance(self, nsegs_per_rank, nranks):
        """Consecutive segments distribute perfectly evenly over ranks."""
        m = SegmentMapping(10, nranks)
        counts = [0] * nranks
        for g in range(nsegs_per_rank * nranks):
            counts[m.owner_of_segment(g)] += 1
        assert counts == [nsegs_per_rank] * nranks
