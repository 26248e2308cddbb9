"""Tests for simulated per-node memory accounting."""

import pytest

from repro.memsim.memory import MemoryTracker
from repro.util.errors import OutOfMemoryError, SimulationError


def tracker(budget=1000, ranks_per_node=2, nodes=2):
    node_of = [r // ranks_per_node for r in range(ranks_per_node * nodes)]
    return MemoryTracker(budget, node_of)


class TestAllocation:
    def test_allocate_and_free(self):
        t = tracker()
        a = t.allocate(0, 400, "buf")
        assert t.breakdown(0) == {"buf": 400}
        t.free(a)
        assert t.breakdown(0) == {}

    def test_ranks_share_their_node_budget(self):
        t = tracker(budget=1000, ranks_per_node=2)
        t.allocate(0, 600, "a")
        with pytest.raises(OutOfMemoryError):
            t.allocate(1, 600, "b")  # same node as rank 0

    def test_other_nodes_unaffected(self):
        t = tracker(budget=1000, ranks_per_node=2)
        t.allocate(0, 900, "a")
        t.allocate(2, 900, "b")  # node 1

    def test_oom_reports_details(self):
        t = tracker(budget=100)
        t.allocate(0, 80, "a")
        with pytest.raises(OutOfMemoryError) as exc:
            t.allocate(0, 50, "b")
        assert exc.value.node == 0
        assert exc.value.requested == 50
        assert exc.value.in_use == 80
        assert exc.value.budget == 100

    def test_exact_fit_allowed(self):
        t = tracker(budget=100)
        t.allocate(0, 100, "a")

    def test_double_free_rejected(self):
        t = tracker()
        a = t.allocate(0, 10, "x")
        t.free(a)
        with pytest.raises(SimulationError):
            t.free(a)

    def test_negative_allocation_rejected(self):
        with pytest.raises(SimulationError):
            tracker().allocate(0, -1, "x")

    def test_unknown_rank_rejected(self):
        with pytest.raises(SimulationError):
            tracker().allocate(99, 1, "x")


class TestAccounting:
    def test_high_water_tracks_peak(self):
        t = tracker()
        a = t.allocate(0, 700, "a")
        t.free(a)
        t.allocate(0, 100, "b")
        assert t.high_water(0) == 700
        assert t.high_water() == 700

    def test_breakdown_by_label(self):
        t = tracker()
        t.allocate(0, 100, "tcio.level1")
        t.allocate(0, 200, "tcio.level2")
        a = t.allocate(0, 50, "tmp")
        t.free(a)
        assert t.breakdown(0) == {"tcio.level1": 100, "tcio.level2": 200}
