"""Cluster spec and the Lonestar presets."""

import pytest

from repro.cluster.lonestar import (
    LONESTAR_SCALE,
    full_scale_lonestar,
    make_lonestar,
)
from repro.cluster.spec import ClusterSpec


class TestLonestarPreset:
    def test_testbed_shape(self):
        """Section V.A: 1,888 nodes x 12 cores, 24 GB, 30 OSTs, 1 MB stripes."""
        full = full_scale_lonestar()
        assert full.nodes == 1888
        assert full.cores_per_node == 12
        assert full.memory_per_node == 24 * 2**30
        assert full.lustre.n_osts == 30
        assert full.lustre.stripe_size == 2**20
        full.validate()

    def test_calibrated_preset_scales_sizes(self):
        scaled = make_lonestar()
        full = full_scale_lonestar()
        assert scaled.memory_per_node == full.memory_per_node // LONESTAR_SCALE
        assert scaled.lustre.stripe_size < full.lustre.stripe_size
        scaled.validate()

    def test_sized_for_shrinks_nodes(self):
        c = make_lonestar(nranks=64)
        assert c.nodes == 6  # ceil(64 / 12)
        assert c.capacity >= 64

    def test_sized_for_rejects_overflow(self):
        with pytest.raises(ValueError):
            full_scale_lonestar().sized_for(1888 * 12 + 1)


class TestClusterSpec:
    def test_capacity(self):
        c = ClusterSpec(
            name="t",
            nodes=3,
            cores_per_node=5,
            memory_per_node=100,
            network=full_scale_lonestar().network,
            lustre=full_scale_lonestar().lustre,
        )
        assert c.capacity == 15
