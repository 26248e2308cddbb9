"""Table IV workload decomposition tests."""

import numpy as np
import pytest

from repro.art.decomposition import ArtWorkload, segment_lengths
from repro.util.errors import BenchmarkError


class TestSegmentLengths:
    def test_table_iv_parameters(self):
        lengths = segment_lengths()
        assert len(lengths) == 1024
        assert abs(lengths.mean() - 2048) < 2048 * 0.02
        assert abs(lengths.std() - 128) < 128 * 0.15

    def test_deterministic_given_seed(self):
        assert np.array_equal(segment_lengths(seed=5), segment_lengths(seed=5))
        assert not np.array_equal(segment_lengths(seed=5), segment_lengths(seed=6))

    def test_always_positive(self):
        lengths = segment_lengths(16, mu=1.0, sigma=100.0, seed=1)
        assert (lengths >= 1.0).all()

    def test_needs_a_segment(self):
        with pytest.raises(BenchmarkError):
            segment_lengths(0)


class TestWorkload:
    def test_round_robin_assignment(self):
        wl = ArtWorkload(n_segments=10)
        assert wl.segments_of(0, 4) == [0, 4, 8]
        assert wl.segments_of(1, 4) == [1, 5, 9]

    def test_every_segment_has_exactly_one_owner(self):
        wl = ArtWorkload(n_segments=17)
        seen = []
        for r in range(5):
            seen.extend(wl.segments_of(r, 5))
        assert sorted(seen) == list(range(17))

    def test_cell_scale_shrinks_targets(self):
        big = ArtWorkload(cell_scale=1)
        small = ArtWorkload(cell_scale=64)
        assert small.target_cells(0) < big.target_cells(0)
        assert small.target_cells(0) >= 1

    def test_trees_are_deterministic_and_rank_independent(self):
        wl = ArtWorkload(n_segments=8, cell_scale=64)
        a = wl.build_tree(3)
        b = wl.build_tree(3)
        assert a == b
        a.check_invariants()

    def test_trees_vary_across_segments(self):
        wl = ArtWorkload(n_segments=8, cell_scale=32)
        trees = [wl.build_tree(i) for i in range(4)]
        sizes = {t.total_cells for t in trees}
        structures = {tuple(t.level_sizes) for t in trees}
        # "these trees have different structures and sizes"
        assert len(structures) > 1 or len(sizes) > 1
