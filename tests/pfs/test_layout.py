"""Striping math tests."""

import pytest
from hypothesis import given, strategies as st

from repro.pfs.layout import StripeLayout
from repro.util.errors import PfsError
from repro.util.intervals import Extent


def layout(stripe_size=100, stripe_count=4, first_ost=0, n_osts=10):
    return StripeLayout(stripe_size, stripe_count, first_ost, n_osts)


class TestMapping:
    def test_ost_round_robin(self):
        l = layout(stripe_count=3, first_ost=5)
        assert [l.ost_of_stripe(k) for k in range(5)] == [5, 6, 7, 5, 6]

    def test_single_stripe_count_pins_one_ost(self):
        l = layout(stripe_count=1, first_ost=2)
        assert {l.ost_of_stripe(k) for k in range(10)} == {2}

    def test_validation(self):
        with pytest.raises(PfsError):
            layout(stripe_count=0)
        with pytest.raises(PfsError):
            layout(stripe_count=11)
        with pytest.raises(PfsError):
            layout(first_ost=10)
        with pytest.raises(PfsError):
            layout(stripe_size=0)


class TestSplitting:
    def test_split_by_stripe(self):
        l = layout(stripe_size=100)
        pieces = list(l.split_by_stripe(Extent(50, 250)))
        assert pieces == [
            (0, Extent(50, 100)),
            (1, Extent(100, 200)),
            (2, Extent(200, 250)),
        ]

    def test_split_by_ost_merges_adjacent_same_ost(self):
        # stripe_count=1: everything is on one OST and merges back together
        l = layout(stripe_count=1)
        by_ost = l.split_by_ost(Extent(0, 350))
        assert by_ost == {0: [Extent(0, 350)]}

    def test_split_by_ost_distributes(self):
        l = layout(stripe_size=100, stripe_count=2)
        by_ost = l.split_by_ost(Extent(0, 400))
        assert by_ost == {
            0: [Extent(0, 100), Extent(200, 300)],
            1: [Extent(100, 200), Extent(300, 400)],
        }

    @given(
        st.integers(0, 5000),
        st.integers(0, 1000),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    def test_split_pieces_cover_exactly(self, start, length, stripe_count, extra_osts):
        l = layout(stripe_size=64, stripe_count=stripe_count, n_osts=stripe_count + extra_osts)
        ext = Extent(start, start + length)
        pieces = [p for _, p in l.split_by_stripe(ext)]
        assert sum(p.length for p in pieces) == ext.length
        pos = ext.start
        for p in pieces:
            assert p.start == pos
            pos = p.stop
        by_ost = l.split_by_ost(ext)
        assert sum(p.length for ps in by_ost.values() for p in ps) == ext.length
