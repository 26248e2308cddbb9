"""Unit tests for repro.topo.topology: placement queries and the split."""

from __future__ import annotations

import pytest

from repro.simmpi import collectives
from repro.topo import NodeTopology, split_by_node
from repro.util.errors import SimulationError
from tests.conftest import make_test_cluster, run_small


class TestNodeTopology:
    def test_basic_queries(self):
        topo = NodeTopology.from_node_of([0, 0, 1, 1])
        assert topo.nodes == (0, 1)
        assert topo.n_nodes == 2
        assert topo.node_of_rank(2) == 1
        assert topo.ranks_on_node(0) == (0, 1)
        assert topo.ranks_on_node(1) == (2, 3)
        assert topo.same_node(0, 1) and not topo.same_node(1, 2)

    def test_leader_is_lowest_rank_on_node(self):
        topo = NodeTopology.from_node_of([3, 3, 7, 7, 7])
        assert topo.leader_of(3) == 0
        assert topo.leader_of(7) == 2

    def test_uneven_ranks_per_node(self):
        topo = NodeTopology.from_node_of([0, 0, 0, 1, 1, 2])
        assert topo.n_nodes == 3
        assert topo.ranks_on_node(0) == (0, 1, 2)
        assert topo.ranks_on_node(2) == (5,)
        assert [topo.leader_of(n) for n in topo.nodes] == [0, 3, 5]

    def test_single_node(self):
        topo = NodeTopology.from_node_of([5, 5, 5])
        assert topo.n_nodes == 1
        assert topo.nodes == (5,)
        assert topo.leader_of(5) == 0
        assert all(topo.same_node(a, b) for a in range(3) for b in range(3))

    def test_one_rank_per_node(self):
        topo = NodeTopology.from_node_of([0, 1, 2, 3])
        assert topo.n_nodes == 4
        assert [topo.leader_of(n) for n in topo.nodes] == [0, 1, 2, 3]

    def test_noncontiguous_node_ids(self):
        topo = NodeTopology.from_node_of([9, 2, 9, 2])
        assert topo.nodes == (2, 9)
        assert topo.ranks_on_node(9) == (0, 2)
        assert topo.leader_of(2) == 1

    def test_errors(self):
        with pytest.raises(SimulationError):
            NodeTopology.from_node_of([])
        topo = NodeTopology.from_node_of([0, 0])
        with pytest.raises(SimulationError):
            topo.node_of_rank(2)
        with pytest.raises(SimulationError):
            topo.leader_of(1)

    def test_determinism(self):
        a = NodeTopology.from_node_of([1, 0, 1, 0])
        b = NodeTopology.from_node_of([1, 0, 1, 0])
        assert a == b


class TestSplitByNode:
    def test_groups_match_placement_and_keep_order(self):
        def main(env):
            node_comm = (yield from split_by_node(env.comm))
            members = (yield from collectives.allgather(node_comm, env.rank))
            return node_comm.rank, node_comm.size, tuple(members)

        res = run_small(6, main, cluster=make_test_cluster(nodes=3, cores_per_node=2))
        for rank, (local, size, members) in enumerate(res.returns):
            assert size == 2
            assert local == rank % 2
            # parent order preserved: leader (local 0) is the lowest rank
            assert members == (rank - local, rank - local + 1)

    def test_from_comm_matches_world_placement(self):
        def main(env):
            topo = NodeTopology.from_comm(env.comm)
            return topo.node_of_rank(env.rank), env.world.node_of[env.rank]

        res = run_small(4, main, cluster=make_test_cluster(nodes=2, cores_per_node=2))
        for got, want in res.returns:
            assert got == want

    def test_split_is_message_free(self):
        """Node membership is local knowledge: no allgather, no messages."""

        def main(env):
            (yield from split_by_node(env.comm))

        res = run_small(4, main, cluster=make_test_cluster(nodes=2, cores_per_node=2))
        assert res.trace.summary().get("net.msg", (0, 0))[0] == 0

    def test_split_comm_carries_traffic(self):
        def main(env):
            node_comm = (yield from split_by_node(env.comm))
            total = (yield from collectives.allreduce(node_comm, env.rank, lambda a, b: a + b))
            return total

        res = run_small(4, main, cluster=make_test_cluster(nodes=2, cores_per_node=2))
        assert res.returns == [1, 1, 5, 5]
