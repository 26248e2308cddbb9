"""Sub-communicators, probe, scatter, and fence."""

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    LOCK_EXCLUSIVE,
    Window,
    comm_from_ranks,
    comm_split,
    run_mpi,
)
from repro.simmpi import collectives as coll
from repro.util.errors import MpiError
from tests.conftest import make_test_cluster


def run(n, fn):
    return run_mpi(n, fn, cluster=make_test_cluster(nodes=4))


class TestCommSplit:
    def test_split_by_parity(self):
        def main(env):
            sub = (yield from comm_split(env.comm, color=env.rank % 2))
            return (sub.rank, sub.size, sub.world_rank(sub.rank))

        res = run(6, main)
        for world_rank, (local, size, back) in enumerate(res.returns):
            assert size == 3
            assert back == world_rank
            assert local == world_rank // 2

    def test_key_controls_ordering(self):
        def main(env):
            # reverse ordering: highest world rank becomes local 0
            sub = (yield from comm_split(env.comm, color=0, key=-env.rank))
            return sub.rank

        res = run(4, main)
        assert res.returns == [3, 2, 1, 0]

    def test_undefined_color_returns_none(self):
        def main(env):
            sub = (yield from comm_split(env.comm, color=0 if env.rank < 2 else -1))
            return sub is None

        res = run(4, main)
        assert res.returns == [False, False, True, True]

    def test_collectives_inside_subgroups(self):
        def main(env):
            sub = (yield from comm_split(env.comm, color=env.rank % 2))
            values = (yield from coll.allgather(sub, env.rank))
            total = (yield from coll.allreduce(sub, env.rank, lambda a, b: a + b))
            return values, total

        res = run(6, main)
        evens = [0, 2, 4]
        odds = [1, 3, 5]
        for world_rank, (values, total) in enumerate(res.returns):
            expected = evens if world_rank % 2 == 0 else odds
            assert values == expected
            assert total == sum(expected)

    def test_pt2pt_translates_local_ranks(self):
        def main(env):
            sub = (yield from comm_split(env.comm, color=env.rank % 2))
            if sub.rank == 0:
                (yield from sub.send(b"hello-sub", 1))
            elif sub.rank == 1:
                assert (yield from sub.recv(0)) == b"hello-sub"

        run(4, main)

    def test_groups_do_not_cross_talk(self):
        def main(env):
            sub = (yield from comm_split(env.comm, color=env.rank % 2))
            # everyone sends in its own group with the same local ranks/tags
            if sub.rank == 0:
                (yield from sub.send_object(("group", env.rank % 2), 1, tag=9))
            elif sub.rank == 1:
                got = (yield from sub.recv_object(0, 9))
                assert got == ("group", env.rank % 2)

        run(4, main)

    def test_comm_from_ranks(self):
        def main(env):
            sub = (yield from comm_from_ranks(env.comm, [3, 1]))
            if env.rank in (1, 3):
                assert sub is not None
                assert sub.size == 2
                # explicit ordering: world 3 first
                assert sub.world_rank(0) == 3
                return sub.rank
            assert sub is None
            return None

        res = run(4, main)
        assert res.returns[3] == 0 and res.returns[1] == 1

    def test_windows_on_subcommunicators(self):
        def main(env):
            sub = (yield from comm_split(env.comm, color=env.rank % 2))
            buf = np.zeros(8, dtype=np.uint8)
            win = yield from Window.create(sub, buf)
            # local rank 1 writes into local rank 0's window
            if sub.rank == 1:
                (yield from win.lock(0, LOCK_EXCLUSIVE))
                win.put(bytes([100 + env.rank]) * 8, 0, 0)
                win.unlock(0)
            (yield from coll.barrier(sub))
            if sub.rank == 0:
                # the writer was world rank (me + 2)
                assert bytes(buf) == bytes([100 + env.rank + 2]) * 8

        run(4, main)

    def test_duplicate_group_ranks_rejected(self):
        from repro.simmpi.group import GroupSpec

        with pytest.raises(MpiError):
            GroupSpec((1, 1))


class TestProbeSendrecv:
    def test_iprobe_sees_without_consuming(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(b"xyz", 1, tag=4))
            elif env.rank == 1:
                env.compute(1e-3)
                (yield from env.settle())
                st = env.comm.iprobe(0, 4)
                assert st is not None and st.count == 3
                st2 = env.comm.iprobe(0, 4)
                assert st2 is not None  # still there
                assert (yield from env.comm.recv(0, 4)) == b"xyz"
                assert env.comm.iprobe(0, 4) is None

        run(2, main)

    def test_iprobe_wildcards(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(b"m", 1, tag=7))
            elif env.rank == 1:
                env.compute(1e-3)
                (yield from env.settle())
                st = env.comm.iprobe(ANY_SOURCE)
                assert st is not None and st.source == 0 and st.tag == 7
                (yield from env.comm.recv(0, 7))

        run(2, main)


class TestScatter:
    def test_scatter_distributes_by_rank(self):
        def main(env):
            objs = [f"item-{i}" for i in range(env.size)] if env.rank == 1 else None
            return (yield from coll.scatter(env.comm, objs, root=1))

        res = run(4, main)
        assert res.returns == [f"item-{i}" for i in range(4)]

    def test_scatter_validates_length(self):
        def main(env):
            if env.rank == 0:
                with pytest.raises(MpiError):
                    (yield from coll.scatter(env.comm, [1], root=0))

        run_mpi(2, main, cluster=make_test_cluster())


class TestFence:
    def test_fence_completes_epochs_and_synchronizes(self):
        def main(env):
            buf = np.zeros(8, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 1:
                (yield from win.lock(0, LOCK_EXCLUSIVE))
                win.put(b"\x07" * 8, 0, 0)
                # no explicit unlock: fence drains the epoch
            (yield from win.fence())
            if env.rank == 0:
                assert bytes(buf) == b"\x07" * 8

        run(2, main)
