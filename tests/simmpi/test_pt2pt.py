"""Point-to-point messaging semantics (matching, ordering, protocols)."""

import pytest

from repro.simmpi import ANY_SOURCE, ANY_TAG, run_mpi
from repro.simmpi.comm import Status, wait_all
from repro.util.errors import DeadlockError, MpiError
from tests.conftest import make_test_cluster


def run(n, fn, **kw):
    kw.setdefault("cluster", make_test_cluster())
    return run_mpi(n, fn, **kw)


class TestBasicSendRecv:
    def test_bytes_round_trip(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(b"payload", 1, tag=3))
            elif env.rank == 1:
                assert (yield from env.comm.recv(0, 3)) == b"payload"

        run(2, main)

    def test_numpy_payloads_become_bytes(self):
        import numpy as np

        data = np.arange(10, dtype=np.int32)

        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(data, 1))
            elif env.rank == 1:
                got = np.frombuffer((yield from env.comm.recv(0)), dtype=np.int32)
                assert np.array_equal(got, data)

        run(2, main)

    def test_object_round_trip(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send({"k": [1, 2, 3]}, 1, tag=9))
            elif env.rank == 1:
                assert (yield from env.comm.recv(0, 9)) == {"k": [1, 2, 3]}

        run(2, main)

    def test_large_message_uses_rendezvous(self):
        cluster = make_test_cluster()
        big = b"x" * (cluster.network.eager_limit * 4)

        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(big, 1))
            elif env.rank == 1:
                assert (yield from env.comm.recv(0)) == big

        run(2, main)

    def test_status_reports_source_tag_count(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(b"12345", 1, tag=77))
            elif env.rank == 1:
                status = Status()
                (yield from env.comm.recv(ANY_SOURCE, ANY_TAG, status=status))
                assert (status.source, status.tag, status.count) == (0, 77, 5)

        run(2, main)


class TestMatching:
    def test_tag_selectivity(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(b"a", 1, tag=1))
                (yield from env.comm.send(b"b", 1, tag=2))
            elif env.rank == 1:
                assert (yield from env.comm.recv(0, 2)) == b"b"
                assert (yield from env.comm.recv(0, 1)) == b"a"

        run(2, main)

    def test_non_overtaking_same_source_tag(self):
        def main(env):
            if env.rank == 0:
                for i in range(5):
                    (yield from env.comm.send(bytes([i]), 1, tag=0))
            elif env.rank == 1:
                got = []
                for _ in range(5):
                    msg = yield from env.comm.recv(0, 0)
                    got.append(msg[0])
                assert got == [0, 1, 2, 3, 4]

        run(2, main)

    def test_wildcard_source(self):
        def main(env):
            if env.rank > 0:
                (yield from env.comm.send(env.rank, 0, tag=5))
            else:
                got = []
                for _ in range(3):
                    got.append((yield from env.comm.recv(ANY_SOURCE, 5)))
                got.sort()
                assert got == [1, 2, 3]

        run(4, main)

    def test_wildcard_respects_arrival_order(self):
        def main(env):
            if env.rank == 1:
                (yield from env.comm.send(b"early", 0))
            elif env.rank == 2:
                env.comm.world.engine  # no-op
                env.compute(1e-3)
                (yield from env.settle())
                (yield from env.comm.send(b"late", 0))
            elif env.rank == 0:
                env.compute(2e-3)
                (yield from env.settle())
                assert (yield from env.comm.recv()) == b"early"
                assert (yield from env.comm.recv()) == b"late"

        run(3, main)

    def test_isend_wait_all(self):
        def main(env):
            if env.rank == 0:
                reqs = []
                for d in range(1, 4):
                    reqs.append((yield from env.comm.isend(bytes([d]), d, tag=0)))
                (yield from wait_all(reqs))
            else:
                assert (yield from env.comm.recv(0, 0)) == bytes([env.rank])

        run(4, main)

    def test_unmatched_recv_deadlocks(self):
        def main(env):
            if env.rank == 1:
                (yield from env.comm.recv(0, 42))

        with pytest.raises(DeadlockError):
            run(2, main)

    def test_bad_peer_rejected(self):
        def main(env):
            with pytest.raises(MpiError):
                (yield from env.comm.send(b"", 99))

        run(2, main)


class TestTiming:
    def test_message_delivery_takes_time(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(b"x" * 1000, 1))
                return 0.0
            t0 = env.now
            (yield from env.comm.recv(0))
            return env.now - t0

        res = run(2, main)
        assert res.returns[1] > 0

    def test_intranode_faster_than_internode(self):
        cluster = make_test_cluster(cores_per_node=2)

        def make_main(dst):
            def main(env):
                if env.rank == 0:
                    (yield from env.comm.send(b"y" * 512, dst))
                elif env.rank == dst:
                    t0 = env.now
                    (yield from env.comm.recv(0))
                    return env.now - t0

            return main

        near = run_mpi(4, make_main(1), cluster=cluster).returns[1]
        far = run_mpi(4, make_main(2), cluster=cluster).returns[2]
        assert far > near

    def test_duplicate_communicators_do_not_cross_match(self):
        def main(env):
            dup = env.comm.dup()
            if env.rank == 0:
                (yield from dup.send(b"on-dup", 1, tag=0))
                (yield from env.comm.send(b"on-world", 1, tag=0))
            elif env.rank == 1:
                # Receive from world first: must NOT get the dup message.
                assert (yield from env.comm.recv(0, 0)) == b"on-world"
                assert (yield from dup.recv(0, 0)) == b"on-dup"

        run(2, main)
