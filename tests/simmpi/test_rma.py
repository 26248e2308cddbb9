"""One-sided communication semantics (windows, locks, put/get)."""

import weakref

import numpy as np
import pytest

from repro.simmpi import LOCK_EXCLUSIVE, LOCK_SHARED, Window, run_mpi
from repro.simmpi import collectives as coll
from repro.simmpi.rma import gather, scatter
from repro.util.errors import MpiError, RmaError
from tests.conftest import make_test_cluster


def run(n, fn):
    return run_mpi(n, fn, cluster=make_test_cluster())


class TestPutGet:
    def test_put_lands_in_target_buffer(self):
        def main(env):
            buf = np.zeros(16, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 1:
                (yield from win.lock(0))
                win.put(b"\xaa\xbb", 0, 3)
                win.unlock(0)
            (yield from coll.barrier(env.comm))
            if env.rank == 0:
                assert bytes(buf[3:5]) == b"\xaa\xbb"

        run(2, main)

    def test_get_reads_remote_buffer(self):
        def main(env):
            buf = np.full(8, env.rank, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            (yield from win.lock(1, LOCK_SHARED))
            data = yield from win.get_indexed(1, 0, [0], [8])
            win.unlock(1)
            assert data == bytes([1] * 8)

        run(3, main)

    def test_put_indexed_places_disjoint_blocks(self):
        def main(env):
            buf = np.zeros(32, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 1:
                (yield from win.lock(0))
                win.put_indexed(0, 0, [0, 10, 20], [2, 2, 2], b"AABBCC")
                win.unlock(0)
            (yield from coll.barrier(env.comm))
            if env.rank == 0:
                assert bytes(buf[0:2]) == b"AA"
                assert bytes(buf[10:12]) == b"BB"
                assert bytes(buf[20:22]) == b"CC"

        run(2, main)

    def test_get_indexed_returns_blocks_in_order(self):
        def main(env):
            buf = np.arange(32, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            (yield from win.lock(0, LOCK_SHARED))
            got = (yield from win.get_indexed(0, 0, [4, 20], [2, 3]))
            based = (yield from win.get_indexed(0, 16, [4, 0], [2, 3]))
            win.unlock(0)
            # the blocks come back packed, in the order asked for
            assert got == bytes([4, 5, 20, 21, 22])
            assert based == bytes([20, 21, 16, 17, 18])
            # scatter undoes gather: the packed blocks land back in place
            copy = bytearray(32)
            scatter(memoryview(copy), 16, [4, 0], [2, 3], based)
            assert copy[16:19] == bytes([16, 17, 18]) and copy[20:22] == bytes([20, 21])
            assert gather(memoryview(copy), 16, [4, 0], [2, 3]) == based

        run(2, main)


class TestEpochRules:
    def test_access_without_lock_rejected(self):
        def main(env):
            buf = np.zeros(8, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 0:
                with pytest.raises(RmaError):
                    win.put(b"x", 1, 0)
            (yield from coll.barrier(env.comm))

        run(2, main)

    def test_unlock_without_lock_rejected(self):
        def main(env):
            buf = np.zeros(8, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 0:
                with pytest.raises(RmaError):
                    win.unlock(1)
            (yield from coll.barrier(env.comm))

        run(2, main)

    def test_double_lock_same_target_rejected(self):
        def main(env):
            buf = np.zeros(8, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 0:
                (yield from win.lock(1))
                with pytest.raises(RmaError):
                    (yield from win.lock(1))
                win.unlock(1)
            (yield from coll.barrier(env.comm))

        run(2, main)

    def test_put_outside_window_rejected(self):
        def main(env):
            buf = np.zeros(8, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 0:
                (yield from win.lock(1))
                with pytest.raises(RmaError):
                    win.put(b"toolongforwindow", 1, 0)
                win.unlock(1)
            (yield from coll.barrier(env.comm))

        run(2, main)

    def test_exclusive_epochs_serialize_writers(self):
        def main(env):
            buf = np.zeros(64, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank != 0:
                (yield from win.lock(0, LOCK_EXCLUSIVE))
                win.put(bytes([env.rank] * 4), 0, 0)
                win.unlock(0)
            (yield from coll.barrier(env.comm))
            if env.rank == 0:
                # last writer wins, and the buffer is internally consistent
                assert len(set(buf[0:4].tolist())) == 1
                assert buf[0] in (1, 2, 3)

        run(4, main)

    def test_readers_after_writer_see_flushed_data(self):
        def main(env):
            buf = np.zeros(8, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 0:
                (yield from win.lock(1, LOCK_EXCLUSIVE))
                win.put(b"\x42" * 8, 1, 0)
                win.unlock(1)
            (yield from coll.barrier(env.comm))
            (yield from win.lock(1, LOCK_SHARED))
            got = yield from win.get_indexed(1, 0, [0], [8])
            win.unlock(1)
            assert got == b"\x42" * 8

        run(3, main)

    def test_get_outside_window_rejected(self):
        def main(env):
            buf = np.zeros(8, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 0:
                (yield from win.lock(1, LOCK_SHARED))
                for base, disps, lens in ((0, [0, 6], [2, 3]), (4, [-5], [1]), (0, [0], [-1])):
                    with pytest.raises(RmaError):
                        yield from win.get_indexed(1, base, disps, lens)
                win.unlock(1)
            (yield from coll.barrier(env.comm))

        run(2, main)

    def test_two_windows_are_independent(self):
        def main(env):
            a = np.zeros(8, dtype=np.uint8)
            b = np.zeros(8, dtype=np.uint8)
            win_a = yield from Window.create(env.comm, a)
            win_b = yield from Window.create(env.comm, b)
            if env.rank == 0:
                (yield from win_a.lock(1))
                win_a.put(b"A" * 8, 1, 0)
                win_a.unlock(1)
                (yield from win_b.lock(1))
                win_b.put(b"B" * 8, 1, 0)
                win_b.unlock(1)
            (yield from coll.barrier(env.comm))
            if env.rank == 1:
                assert bytes(a) == b"A" * 8
                assert bytes(b) == b"B" * 8

        run(2, main)


class TestWindowFree:
    def test_lock_put_get_on_a_freed_window_raise(self):
        def main(env):
            buf = np.zeros(8, dtype=np.uint8)
            win = yield from Window.create(env.comm, buf)
            if env.rank == 1:
                (yield from win.lock(0))
            (yield from coll.barrier(env.comm))
            if env.rank == 0:
                win.free()
            (yield from coll.barrier(env.comm))
            if env.rank == 0:
                with pytest.raises(MpiError):
                    yield from win.lock(0)
                (yield from win.lock(1))  # rank 1 still exposes its buffer
                win.put(b"\x01", 1, 0)
                win.unlock(1)
            else:
                # rank 1 opened its epoch before the target freed the window
                with pytest.raises(MpiError):
                    win.put(b"\x02", 0, 0)
                with pytest.raises(MpiError):
                    yield from win.get_indexed(0, 0, [0], [1])
                with pytest.raises(MpiError):
                    win.unlock(0)
            (yield from coll.barrier(env.comm))
            return bytes(buf)

        res = run(2, main)
        assert res.returns == [bytes(8), b"\x01" + bytes(7)]

    def test_free_inside_an_epoch_rejected(self):
        def main(env):
            win = yield from Window.create(env.comm, np.zeros(8, dtype=np.uint8))
            if env.rank == 0:
                (yield from win.lock(1))
                with pytest.raises(RmaError):
                    win.free()
                win.unlock(1)
            (yield from coll.barrier(env.comm))
            win.free()

        res = run(2, main)
        assert res.world._windows == {} and res.world._window_locks == {}

    def test_the_world_keeps_no_view_of_a_freed_buffer(self):
        buffers = []

        def main(env):
            buf = np.zeros(8, dtype=np.uint8)
            buffers.append(weakref.ref(buf))
            first = yield from Window.create(env.comm, buf)
            (yield from coll.barrier(env.comm))
            first.free()
            second = yield from Window.create(env.comm, np.zeros(8, dtype=np.uint8))
            assert second.win_id != first.win_id  # ids are never reused

        res = run(2, main)
        assert [ref() for ref in buffers] == [None, None]
        assert sorted(res.world._windows) == [(1, 0), (1, 1)]
