"""Unit + property tests for the extent algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.util.intervals import Extent, merge_ranges


def extents(max_coord=1000):
    return st.builds(
        lambda a, b: Extent(min(a, b), max(a, b)),
        st.integers(0, max_coord),
        st.integers(0, max_coord),
    )


class TestExtent:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Extent(5, 3)

    def test_length_and_empty(self):
        assert Extent(3, 7).length == 4
        assert Extent(3, 3).is_empty()
        assert not Extent(3, 4).is_empty()

    def test_align_down_expands_to_units(self):
        assert Extent(5, 17).align_down(8) == Extent(0, 24)
        assert Extent(8, 16).align_down(8) == Extent(8, 16)

    def test_align_down_empty_stays_empty(self):
        assert Extent(5, 5).align_down(8).is_empty()

    def test_align_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            Extent(0, 1).align_down(0)

    @given(extents(), st.integers(1, 64))
    def test_align_down_covers_and_is_aligned(self, e, unit):
        a = e.align_down(unit)
        assert (a.start <= e.start and e.stop <= a.stop) or (e.is_empty() and a.is_empty())
        assert a.start % unit == 0
        assert a.stop % unit == 0 or a.is_empty()


class TestMergeRanges:
    def test_touching_and_overlapping_coalesce(self):
        assert merge_ranges([(5, 10), (0, 5), (20, 30), (25, 28)]) == [(0, 10), (20, 30)]

    def test_empty_ranges_dropped(self):
        assert merge_ranges([(3, 3), (7, 2)]) == []

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200)), max_size=12))
    def test_sorted_disjoint_same_cover(self, pairs):
        out = merge_ranges(pairs)
        for (_, hi), (lo, _) in zip(out, out[1:]):
            assert hi < lo  # sorted, disjoint, not even touching
        assert all(lo < hi for lo, hi in out)
        covered = {x for lo, hi in pairs for x in range(lo, hi)}
        assert {x for lo, hi in out for x in range(lo, hi)} == covered

