"""Collective operation semantics across rank counts."""

import pytest

from repro.simmpi import run_mpi
from repro.simmpi import collectives as coll
from tests.conftest import make_test_cluster


def run(n, fn):
    return run_mpi(n, fn, cluster=make_test_cluster(nodes=8))


NPROCS = [1, 2, 3, 5, 8]


class TestBarrier:
    @pytest.mark.parametrize("n", NPROCS)
    def test_no_rank_escapes_early(self, n):
        arrivals = {}

        def main(env):
            env.compute(env.rank * 1e-3)  # staggered arrivals
            (yield from env.settle())
            arrivals[env.rank] = env.now
            (yield from coll.barrier(env.comm))
            return env.now

        res = run(n, main)
        latest = max(arrivals.values())
        assert all(t >= latest for t in res.returns)

    def test_barriers_are_reusable(self):
        def main(env):
            for _ in range(3):
                (yield from coll.barrier(env.comm))

        run(4, main)


class TestBcast:
    @pytest.mark.parametrize("n", NPROCS)
    @pytest.mark.parametrize("root", [0, -1])
    def test_everyone_gets_roots_object(self, n, root):
        root = root % n

        def main(env):
            obj = {"from": env.rank} if env.rank == root else None
            return (yield from coll.bcast(env.comm, obj, root=root))

        res = run(n, main)
        assert res.returns == [{"from": root}] * n

    def test_bad_root_rejected(self):
        from repro.util.errors import MpiError

        def main(env):
            with pytest.raises(MpiError):
                (yield from coll.bcast(env.comm, 1, root=99))

        run(2, main)


class TestGatherAllgather:
    @pytest.mark.parametrize("n", NPROCS)
    def test_allgather_everywhere(self, n):
        def main(env):
            return (yield from coll.allgather(env.comm, (env.rank, env.rank**2)))

        res = run(n, main)
        expected = [(r, r**2) for r in range(n)]
        assert res.returns == [expected] * n


class TestAlltoall:
    @pytest.mark.parametrize("n", NPROCS)
    def test_personalized_exchange(self, n):
        def main(env):
            send = [f"{env.rank}->{d}" for d in range(n)]
            return (yield from coll.alltoall(env.comm, send))

        res = run(n, main)
        for r, got in enumerate(res.returns):
            assert got == [f"{s}->{r}" for s in range(n)]

    def test_wrong_length_rejected(self):
        from repro.util.errors import MpiError

        def main(env):
            with pytest.raises(MpiError):
                (yield from coll.alltoall(env.comm, [1]))

        run(3, main)


class TestReductions:
    @pytest.mark.parametrize("n", NPROCS)
    def test_reduce_sum(self, n):
        def main(env):
            return (yield from coll.reduce(env.comm, env.rank + 1, lambda a, b: a + b, root=0))

        res = run(n, main)
        assert res.returns[0] == n * (n + 1) // 2

    @pytest.mark.parametrize("n", NPROCS)
    def test_allreduce_max(self, n):
        def main(env):
            return (yield from coll.allreduce(env.comm, (env.rank * 7) % 5, max))

        res = run(n, main)
        expected = max((r * 7) % 5 for r in range(n))
        assert res.returns == [expected] * n

    def test_back_to_back_collectives_do_not_cross_match(self):
        def main(env):
            a = (yield from coll.allgather(env.comm, ("first", env.rank)))
            b = (yield from coll.allgather(env.comm, ("second", env.rank)))
            assert all(x[0] == "first" for x in a)
            assert all(x[0] == "second" for x in b)

        run(5, main)
