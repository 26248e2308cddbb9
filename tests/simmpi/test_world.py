"""MpiWorld / run_mpi plumbing tests."""

import pytest

from repro.simmpi import run_mpi
from repro.simmpi.mpi import MpiWorld
from repro.util.errors import MpiError, OutOfMemoryError
from tests.conftest import make_test_cluster


class TestRunMpi:
    def test_returns_collected_in_rank_order(self):
        res = run_mpi(5, lambda env: env.rank * 2, cluster=make_test_cluster(nodes=2))
        assert res.returns == [0, 2, 4, 6, 8]

    def test_rank_env_exposes_topology(self):
        cluster = make_test_cluster(cores_per_node=2)

        def main(env):
            return (env.rank, env.size, env.world.node_of[env.rank])

        res = run_mpi(4, main, cluster=cluster)
        assert res.returns == [(0, 4, 0), (1, 4, 0), (2, 4, 1), (3, 4, 1)]

    def test_capacity_enforced(self):
        cluster = make_test_cluster(nodes=1, cores_per_node=2)
        with pytest.raises(MpiError):
            run_mpi(3, lambda env: None, cluster=cluster)

    def test_compute_advances_local_clock(self):
        def main(env):
            env.compute(1e-3)
            (yield from env.settle())
            return env.now

        res = run_mpi(2, main, cluster=make_test_cluster())
        assert all(t >= 1e-3 for t in res.returns)

    def test_pfs_init_seeds_files(self):
        def seed(pfs):
            pfs.create("pre").write_bytes(0, b"seeded")

        def main(env):
            return env.pfs.lookup("pre").contents()

        res = run_mpi(2, lambda env: main(env), cluster=make_test_cluster(), pfs_init=seed)
        assert res.returns == [b"seeded", b"seeded"]

    def test_oom_propagates_from_rank(self):
        cluster = make_test_cluster(memory_per_node=100)

        def main(env):
            env.world.memory.allocate(env.rank, 1000, "huge")

        with pytest.raises(OutOfMemoryError):
            run_mpi(2, main, cluster=cluster)

    def test_trace_collects_counters(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(b"hi", 1))
            elif env.rank == 1:
                (yield from env.comm.recv(0))

        res = run_mpi(2, main, cluster=make_test_cluster())
        assert res.trace.get("mpi.send").count == 1

    def test_elapsed_is_final_clock(self):
        def main(env):
            env.compute(5e-3)
            (yield from env.settle())

        res = run_mpi(1, main, cluster=make_test_cluster())
        assert res.elapsed >= 5e-3


class TestWorldValidation:
    def test_needs_one_rank(self):
        from repro.memsim.memory import MemoryTracker
        from repro.netsim.fabric import Fabric
        from repro.netsim.model import NetworkSpec
        from repro.sim.engine import Engine

        engine = Engine()
        pfs = make_test_cluster().build_pfs(engine)
        with pytest.raises(MpiError):
            MpiWorld(engine, 0, Fabric(engine, NetworkSpec(), []), MemoryTracker(1, []), pfs)

    def test_node_map_length_checked(self):
        from repro.memsim.memory import MemoryTracker
        from repro.netsim.fabric import Fabric
        from repro.netsim.model import NetworkSpec
        from repro.sim.engine import Engine

        engine = Engine()
        pfs = make_test_cluster().build_pfs(engine)
        with pytest.raises(MpiError):
            MpiWorld(engine, 2, Fabric(engine, NetworkSpec(), [0]), MemoryTracker(1, [0, 0]), pfs)

    def test_unknown_window_rejected(self):
        def main(env):
            with pytest.raises(MpiError):
                env.world.window_buffer(99, 0)

        run_mpi(1, main, cluster=make_test_cluster())

    def test_shared_registry_is_shared(self):
        def main(env):
            env.world.shared.setdefault("k", env.rank)
            return env.world.shared["k"]

        res = run_mpi(3, main, cluster=make_test_cluster())
        assert len(set(res.returns)) == 1
