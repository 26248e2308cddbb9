"""The Fig. 8 self-describing record format — including the 129-array check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.art.ftt import FttError, FttTree
from repro.art.layout import FttRecordLayout, canonicalize
from tests.art.test_ftt_differential import refine


def paper_example_tree() -> FttTree:
    """Two variables, depth 6, level sizes {1,2,4,8,16,32} (fan-out 2)."""
    t = FttTree.root_only(2, oct=2)
    for level in range(5):
        for cell in range(t.levels[level].ncells):
            refine(t, level, cell)
    rng = np.random.default_rng(9)
    for lv in t.levels:
        lv.variables[:] = rng.normal(size=lv.variables.shape)
    return t


class TestPaperSizing:
    def test_the_129_array_example(self):
        """'one FTT will consist of 129 arrays of different types and sizes'"""
        tree = paper_example_tree()
        layout = FttRecordLayout()
        assert layout.array_count(tree) == 129
        bounds = layout.array_bounds(canonicalize(tree))
        assert len(bounds) - 1 == 129
        # different types and sizes: int32 headers, uint8 flags, f64 values
        sizes = {stop - start for start, stop in zip(bounds, bounds[1:])}
        assert len(sizes) >= 3

    def test_record_nbytes_matches_serialization(self):
        tree = canonicalize(paper_example_tree())
        layout = FttRecordLayout()
        assert len(layout.serialize(tree)) == layout.record_nbytes(tree)

    def test_arrays_are_adjacent_and_ordered(self):
        tree = canonicalize(paper_example_tree())
        layout = FttRecordLayout()
        bounds = layout.array_bounds(tree)
        assert bounds[0] == 0 and bounds[-1] == layout.record_nbytes(tree)
        assert bounds == sorted(bounds)
        # header, level sizes, flags, then one float64 per variable per cell
        assert [b - a for a, b in zip(bounds, bounds[1:4])] == [20, 4 * 6, 63]
        assert {b - a for a, b in zip(bounds[3:], bounds[4:])} == {8}


class TestRoundTrip:
    def test_parse_inverts_serialize(self):
        tree = canonicalize(paper_example_tree())
        layout = FttRecordLayout()
        parsed = layout.parse(layout.serialize(tree))
        assert parsed == tree

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(1, 3))
    def test_random_trees_round_trip(self, seed, target, nvars):
        rng = np.random.default_rng(seed)
        tree = canonicalize(FttTree.build_random(rng, nvars, target))
        layout = FttRecordLayout()
        parsed = layout.parse(layout.serialize(tree))
        assert parsed == tree
        parsed.check_invariants()

    def test_bad_magic_rejected(self):
        layout = FttRecordLayout()
        with pytest.raises(FttError):
            layout.parse(b"\x00" * 64)

    def test_array_bounds_cut_serialize_into_its_arrays(self):
        tree = canonicalize(paper_example_tree())
        layout = FttRecordLayout()
        blob = layout.serialize(tree)
        bounds = layout.array_bounds(tree)
        arrays = [blob[a:b] for a, b in zip(bounds, bounds[1:])]
        header = np.frombuffer(arrays[0], dtype=np.int32)
        assert header.tolist()[1:] == [2, 2, 6, 63]
        assert np.frombuffer(arrays[1], dtype=np.int32).tolist() == tree.level_sizes
        assert arrays[2] == b"".join(lv.refined.tobytes() for lv in tree.levels)
        # cell by cell in level order, each cell's variables in order
        values = [v for lv in tree.levels for cell in lv.variables.T for v in cell]
        assert [np.frombuffer(a, dtype=np.float64)[0] for a in arrays[3:]] == values

    def test_truncated_record_rejected(self):
        layout = FttRecordLayout()
        blob = layout.serialize(canonicalize(paper_example_tree()))
        for cut in (len(blob) - 1, 15, 0):
            with pytest.raises(FttError):
                layout.parse(blob[:cut])

    def test_trailing_bytes_rejected(self):
        layout = FttRecordLayout()
        blob = layout.serialize(canonicalize(paper_example_tree()))
        with pytest.raises(FttError):
            layout.parse(blob + b"\x00")


class TestCanonicalize:
    def test_canonical_tree_has_sorted_parents(self):
        tree = FttTree.build_random(np.random.default_rng(4), 2, 100)
        canon = canonicalize(tree)
        for lv in canon.levels[1:]:
            parents = lv.parent.tolist()
            assert parents == sorted(parents)
        canon.check_invariants()

    def test_canonicalize_preserves_cell_multiset(self):
        tree = FttTree.build_random(np.random.default_rng(4), 2, 100)
        canon = canonicalize(tree)
        assert canon.level_sizes == tree.level_sizes
        for a, b in zip(tree.levels, canon.levels):
            assert sorted(a.variables[0].tolist()) == pytest.approx(
                sorted(b.variables[0].tolist())
            )

    def test_canonicalize_is_idempotent(self):
        tree = FttTree.build_random(np.random.default_rng(4), 2, 80)
        once = canonicalize(tree)
        twice = canonicalize(once)
        assert once == twice
