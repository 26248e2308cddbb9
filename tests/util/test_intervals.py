"""Unit + property tests for the extent algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.util.intervals import Extent, ExtentSet, merge_ranges


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

    def test_contains(self):
        e = Extent(10, 20)
        assert e.contains(10)
        assert e.contains(19)
        assert not e.contains(20)
        assert not e.contains(9)

    def test_covers(self):
        assert Extent(0, 10).covers(Extent(2, 8))
        assert Extent(0, 10).covers(Extent(0, 10))
        assert not Extent(0, 10).covers(Extent(5, 11))

    def test_overlaps_vs_touches(self):
        assert Extent(0, 5).touches(Extent(5, 9))
        assert not Extent(0, 5).overlaps(Extent(5, 9))
        assert Extent(0, 6).overlaps(Extent(5, 9))

    def test_intersect_disjoint_is_empty(self):
        assert Extent(0, 5).intersect(Extent(7, 9)).is_empty()

    def test_intersect_partial(self):
        assert Extent(0, 5).intersect(Extent(3, 9)) == Extent(3, 5)

    def test_shift(self):
        assert Extent(1, 3).shift(10) == Extent(11, 13)

    def test_split_at(self):
        left, right = Extent(0, 10).split_at(4)
        assert left == Extent(0, 4) and right == Extent(4, 10)

    def test_split_at_out_of_range(self):
        with pytest.raises(ValueError):
            Extent(0, 10).split_at(11)

    def test_align_down_expands_to_units(self):
        assert Extent(5, 17).align_down(8) == Extent(0, 24)
        assert Extent(8, 16).align_down(8) == Extent(8, 16)

    def test_align_down_empty_stays_empty(self):
        assert Extent(5, 5).align_down(8).is_empty()

    def test_align_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            Extent(0, 1).align_down(0)


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


class TestExtentSet:
    def test_normalizes_merges(self):
        s = ExtentSet([Extent(0, 5), Extent(5, 10), Extent(20, 30)])
        assert list(s) == [Extent(0, 10), Extent(20, 30)]

    def test_drops_empties(self):
        assert len(ExtentSet([Extent(3, 3)])) == 0

    def test_total_length(self):
        s = ExtentSet([Extent(0, 5), Extent(10, 12)])
        assert s.total_length == 7

    def test_bounding(self):
        s = ExtentSet([Extent(3, 5), Extent(10, 12)])
        assert s.bounding() == Extent(3, 12)
        assert ExtentSet().bounding().is_empty()

    def test_subtract(self):
        s = ExtentSet([Extent(0, 10)]).subtract(Extent(3, 5))
        assert list(s) == [Extent(0, 3), Extent(5, 10)]

    def test_subtract_everything(self):
        assert not ExtentSet([Extent(2, 8)]).subtract(Extent(0, 10))

    def test_intersect(self):
        s = ExtentSet([Extent(0, 5), Extent(8, 12)]).intersect(Extent(4, 9))
        assert list(s) == [Extent(4, 5), Extent(8, 9)]

    def test_covers(self):
        s = ExtentSet([Extent(0, 5), Extent(5, 10)])
        assert s.covers(Extent(2, 9))
        assert not s.covers(Extent(2, 11))
        assert s.covers(Extent(4, 4))  # empty is always covered

    def test_holes_within(self):
        s = ExtentSet([Extent(2, 4), Extent(6, 8)])
        holes = s.holes_within(Extent(0, 10))
        assert list(holes) == [Extent(0, 2), Extent(4, 6), Extent(8, 10)]

    def test_union(self):
        s = ExtentSet([Extent(0, 2)]).union(Extent(2, 4))
        assert list(s) == [Extent(0, 4)]


class TestExtentSetProperties:
    @given(st.lists(extents(), max_size=12))
    def test_normalized_is_sorted_and_disjoint(self, items):
        out = list(ExtentSet(items))
        for a, b in zip(out, out[1:]):
            assert a.stop < b.start  # strictly disjoint, not even touching

    @given(st.lists(extents(), max_size=12), st.lists(extents(), max_size=12))
    def test_subtract_then_intersect_empty(self, xs, ys):
        s = ExtentSet(xs)
        holes = ExtentSet(ys)
        assert not s.subtract(holes).intersect(holes).total_length

    @given(st.lists(extents(), max_size=12))
    def test_total_length_equals_point_count(self, items):
        s = ExtentSet(items)
        points = set()
        for e in items:
            points.update(range(e.start, e.stop))
        assert s.total_length == len(points)

    @given(st.lists(extents(), max_size=10), extents())
    def test_holes_partition_the_extent(self, items, container):
        s = ExtentSet(items)
        holes = s.holes_within(container)
        inside = s.intersect(container)
        assert holes.total_length + inside.total_length == container.length

    @given(extents(), st.integers(1, 64))
    def test_align_down_covers_and_is_aligned(self, e, unit):
        a = e.align_down(unit)
        assert a.covers(e) or (e.is_empty() and a.is_empty())
        assert a.start % unit == 0
        assert a.stop % unit == 0 or a.is_empty()


class TestFastPathsMatchReference:
    """The bisect/merge rewrites must match the normalize-everything
    semantics exactly (these are simulator hot paths; see docs/performance.md)."""

    @given(st.lists(extents(), max_size=15))
    def test_incremental_add_equals_batch_normalize(self, items):
        incremental = ExtentSet()
        for e in items:
            incremental.add(e)
        assert incremental == ExtentSet(items)

    @given(st.lists(extents(), max_size=12), extents())
    def test_covers_matches_subtract_definition(self, items, probe):
        s = ExtentSet(items)
        assert s.covers(probe) == (not ExtentSet([probe]).subtract(s))

    @given(st.lists(extents(), max_size=10), st.lists(extents(), max_size=10))
    def test_intersect_matches_all_pairs(self, xs, ys):
        a, b = ExtentSet(xs), ExtentSet(ys)
        brute = ExtentSet(
            x.intersect(y) for x in a for y in b
        )
        assert a.intersect(b) == brute

    @given(st.lists(extents(), max_size=10), extents())
    def test_intersect_single_extent_matches_set(self, xs, probe):
        s = ExtentSet(xs)
        assert s.intersect(probe) == s.intersect(ExtentSet([probe]))
