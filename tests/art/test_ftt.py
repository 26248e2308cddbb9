"""Fully threaded tree construction and invariants.

Single refinements go through the leaf-by-leaf oracle of
``test_ftt_differential.py``, which pins them here; ``FttTree.build_random``
must draw the same trees as that oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.art.ftt import FttError, FttTree
from tests.art.test_ftt_differential import iter_leaves, refine


class TestConstruction:
    def test_root_only(self):
        t = FttTree.root_only(nvars=2)
        assert t.depth == 1
        assert t.total_cells == 1
        assert list(iter_leaves(t)) == [(0, 0)]
        t.check_invariants()

    def test_refine_adds_an_oct(self):
        t = FttTree.root_only(2)
        refine(t, 0, 0)
        assert t.level_sizes == [1, 8]
        assert list(iter_leaves(t)) == [(1, c) for c in range(8)]
        t.check_invariants()

    def test_refine_deeper(self):
        t = FttTree.root_only(1)
        refine(t, 0, 0)
        refine(t, 1, 3)
        assert t.level_sizes == [1, 8, 8]
        assert t.levels[2].parent.tolist() == [3] * 8
        t.check_invariants()

    def test_children_interpolate_parent_variables(self):
        t = FttTree.root_only(1)
        t.levels[0].variables[0, 0] = 5.0
        refine(t, 0, 0)
        children = t.levels[1].variables[0]
        assert np.all(children > 5.0) and np.all(children < 6.0)

    def test_double_refine_rejected(self):
        t = FttTree.root_only(1)
        refine(t, 0, 0)
        with pytest.raises(FttError):
            refine(t, 0, 0)

    def test_bad_cell_rejected(self):
        t = FttTree.root_only(1)
        with pytest.raises(FttError):
            refine(t, 0, 5)
        with pytest.raises(FttError):
            refine(t, 3, 0)

    def test_configurable_fanout(self):
        t = FttTree.root_only(2, oct=2)
        refine(t, 0, 0)
        assert t.level_sizes == [1, 2]

    def test_paper_example_shape(self):
        """The Fig. 8 example: fan-out 2, sizes {1,2,4,8,16,32}."""
        t = FttTree.root_only(2, oct=2)
        for level in range(5):
            for cell in range(t.levels[level].ncells):
                refine(t, level, cell)
        assert t.level_sizes == [1, 2, 4, 8, 16, 32]
        assert t.total_cells == 63
        t.check_invariants()

    def test_bad_nvars_and_fanout(self):
        with pytest.raises(FttError):
            FttTree.root_only(0)
        with pytest.raises(FttError):
            FttTree.root_only(1, oct=1)


class TestRandomTrees:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200))
    def test_build_random_hits_target_and_is_valid(self, seed, target):
        rng = np.random.default_rng(seed)
        t = FttTree.build_random(rng, nvars=2, target_cells=target)
        assert t.total_cells >= target
        assert t.total_cells < target + 8  # at most one extra oct
        t.check_invariants()

    def test_build_random_is_deterministic(self):
        a = FttTree.build_random(np.random.default_rng(11), 2, 64)
        b = FttTree.build_random(np.random.default_rng(11), 2, 64)
        assert a == b

    def test_different_seeds_differ(self):
        a = FttTree.build_random(np.random.default_rng(1), 2, 64)
        b = FttTree.build_random(np.random.default_rng(2), 2, 64)
        assert a != b

    def test_equality_is_structural(self):
        a = FttTree.build_random(np.random.default_rng(5), 2, 40)
        b = FttTree.build_random(np.random.default_rng(5), 2, 40)
        assert a == b
        b.levels[0].variables[0, 0] += 1.0
        assert a != b

    def test_leaves_enumerate_unrefined_cells(self):
        t = FttTree.build_random(np.random.default_rng(3), 1, 30)
        leaves = list(iter_leaves(t))
        assert len(leaves) == sum(int((lv.refined == 0).sum()) for lv in t.levels)
        for level, cell in leaves:
            assert t.levels[level].refined[cell] == 0
