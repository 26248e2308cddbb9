"""Sub-communicators and probe."""

import numpy as np
import pytest

from repro.ioserver.protocol import TAG_REPLY, TAG_REQUEST
from repro.simmpi import (
    ANY_SOURCE,
    LOCK_EXCLUSIVE,
    Status,
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
                (yield from sub.send(("group", env.rank % 2), 1, tag=9))
            elif sub.rank == 1:
                got = (yield from sub.recv(0, 9))
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


class TestSubCommunicatorSources:
    """Probe and receive report the sender's rank in the communicator.

    On four ranks split with ``key=-rank`` the order reverses: local rank
    0 is world rank 3 and local rank 1 is world rank 2, so a world rank
    leaking through would read as 2, not 1.
    """

    @staticmethod
    def exchange(check):
        """Local rank 1 sends one message on tag 5; local rank 0 waits a
        moment, runs *check(sub)* and returns what it returns."""

        def main(env):
            sub = yield from comm_split(env.comm, color=0, key=-env.rank)
            if sub.rank == 1:
                yield from sub.send(b"m", 0, tag=5)
            elif sub.rank == 0:
                env.compute(1e-3)
                yield from env.settle()
                return (yield from check(sub))

        return run(4, main).returns[3]

    def test_iprobe_of_a_local_source_finds_the_message(self):
        def check(sub):
            st = sub.iprobe(1, 5)
            yield from sub.recv(1, 5)
            return st

        st = self.exchange(check)
        assert st is not None and (st.source, st.tag, st.count) == (1, 5, 1)

    def test_wildcard_iprobe_reports_the_local_source(self):
        def check(sub):
            st = sub.iprobe(ANY_SOURCE, 5)
            yield from sub.recv(ANY_SOURCE, 5)
            return st

        assert self.exchange(check).source == 1

    def test_recv_status_reports_the_local_source(self):
        def check(sub):
            st = Status()
            payload = yield from sub.recv(ANY_SOURCE, 5, status=st)
            return payload, st.source

        assert self.exchange(check) == (b"m", 1)

    def test_rpc_poll_then_recv_round_trip(self):
        """A server answers whoever its poll saw, by communicator rank."""

        def main(env):
            sub = yield from comm_split(env.comm, color=0, key=-env.rank)
            if sub.rank == 0:  # the server
                for _ in range(sub.size - 1):
                    status = sub.iprobe(ANY_SOURCE, TAG_REQUEST)
                    while status is None:
                        env.compute(1e-4)
                        yield from env.settle()
                        status = sub.iprobe(ANY_SOURCE, TAG_REQUEST)
                    request = yield from sub.recv(status.source, TAG_REQUEST)
                    yield from sub.send(("ack", request), status.source, TAG_REPLY)
                return None
            yield from sub.send(sub.rank, 0, TAG_REQUEST)
            return (yield from sub.recv(0, TAG_REPLY))

        res = run(4, main)
        # world rank w is local rank 3 - w; every client got its own answer
        assert res.returns == [("ack", 3), ("ack", 2), ("ack", 1), None]
