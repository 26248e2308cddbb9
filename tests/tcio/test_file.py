"""TCIO end-to-end semantics: the Program-1 API on the simulated cluster."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi import run_mpi
from repro.simmpi import collectives as coll
from repro.tcio import (
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    TCIO_RDONLY,
    TCIO_WRONLY,
    TcioConfig,
    TcioFile,
    tcio_close,
    tcio_open,
    tcio_seek,
    tcio_write,
    tcio_write_at,
)
from repro.util.errors import TcioError
from tests.conftest import make_test_cluster, run_small as run


def cfg_for(total, nranks, segment=64):
    return TcioConfig.sized_for(total, nranks, segment)


class TestWritePath:
    def test_figure4_workflow(self):
        """The paper's Fig. 4: 2 procs, int+double pairs, round-robin."""
        import struct

        LEN = 6

        def main(env):
            r, P = env.rank, env.size
            fh = (yield from tcio_open(env, "f", TCIO_WRONLY, cfg_for(LEN * P * 12, P, 24)))
            for i in range(LEN):
                pos = r * 12 + i * 12 * P
                (yield from tcio_write_at(fh, pos, struct.pack("<i", i + 10 * r)))
                (yield from tcio_write_at(fh, pos + 4, struct.pack("<d", i + 100.0 * r)))
            (yield from tcio_close(fh))
            return fh.stats.as_dict()

        res = run(2, main)
        expected = bytearray()
        for i in range(LEN):
            for r in range(2):
                expected += struct_pack(i, r)
        assert res.pfs.lookup("f").contents() == bytes(expected)
        stats = res.returns[0]
        # combining: 12 write calls became a handful of flushes
        assert stats["write_calls"] == 12
        assert stats["flushed_bytes"] == 72
        assert 0 < stats["local_flushes"] + stats["remote_flushes"] <= 6

    def test_sequential_write_and_seek(self):
        def main(env):
            fh = (yield from tcio_open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16)))
            if env.rank == 0:
                (yield from tcio_write(fh, b"abcd"))
                (yield from tcio_write(fh, b"efgh"))
                tcio_seek(fh, 16, SEEK_SET)
                (yield from tcio_write(fh, b"zz"))
                assert fh.tell() == 18
            (yield from tcio_close(fh))

        res = run(2, main)
        data = res.pfs.lookup("f").contents()
        assert data[:8] == b"abcdefgh"
        assert data[16:18] == b"zz"

    def test_write_spanning_many_segments(self):
        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(1024, env.size, 32)))
            if env.rank == 1:
                (yield from fh.write_at(10, bytes(range(200))))
            (yield from fh.close())

        res = run(4, main)
        assert res.pfs.lookup("f").contents()[10:210] == bytes(range(200))

    def test_eof_tracking_via_allreduce(self):
        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(4096, env.size, 64)))
            (yield from fh.write_at(env.rank * 100, b"x"))
            (yield from fh.close())

        res = run(4, main)
        assert res.pfs.lookup("f").size == 301

    def test_seek_end_uses_global_eof(self):
        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(4096, env.size, 64)))
            if env.rank == 0:
                (yield from fh.write_at(0, b"y" * 50))
            (yield from coll.barrier(env.comm))
            pos = fh.seek(0, SEEK_END)
            (yield from coll.barrier(env.comm))
            (yield from fh.close())
            return pos

        res = run(2, main)
        assert res.returns == [50, 50]

    def test_wronly_truncates_existing(self):
        def main(env):
            f = env.pfs.create("f")
            if env.rank == 0:
                f.write_bytes(0, b"OLDOLDOLD")
            (yield from coll.barrier(env.comm))
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16)))
            (yield from fh.write_at(0, b"new"))
            (yield from fh.close())

        res = run(2, main)
        assert res.pfs.lookup("f").contents() == b"new"


class TestReadPath:
    def _write_file(self, env, total=256, segment=32):
        fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(total, env.size, segment)))
        if env.rank == 0:
            (yield from fh.write_at(0, bytes(range(256))))
        (yield from fh.close())

    def test_lazy_read_fills_only_after_fetch(self):
        def main(env):
            (yield from self._write_file(env))
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg_for(256, env.size, 32)))
            buf = bytearray(8)
            (yield from fh.read_at(env.rank * 8, buf))
            before = bytes(buf)
            (yield from fh.fetch())
            after = bytes(buf)
            (yield from fh.close())
            return before, after

        res = run(2, main)
        for rank, (before, after) in enumerate(res.returns):
            assert before == b"\x00" * 8
            assert after == bytes(range(rank * 8, rank * 8 + 8))

    def test_close_fetches_pending_reads(self):
        def main(env):
            (yield from self._write_file(env))
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg_for(256, env.size, 32)))
            buf = bytearray(4)
            (yield from fh.read_at(100, buf))
            (yield from fh.close())  # implicit fetch
            assert bytes(buf) == bytes(range(100, 104))

        run(2, main)

    def test_read_now_convenience(self):
        def main(env):
            (yield from self._write_file(env))
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg_for(256, env.size, 32)))
            got = (yield from fh.read_now(32, 16))
            (yield from fh.close())
            assert got == bytes(range(32, 48))

        run(2, main)

    def test_overflow_triggers_automatic_fetch(self):
        def main(env):
            (yield from self._write_file(env))
            cfg = TcioConfig(
                segment_size=32, segments_per_process=8, read_window_segments=1
            )
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg))
            bufs = [bytearray(4) for _ in range(4)]
            for i, b in enumerate(bufs):
                (yield from fh.read_at(i * 64, b))  # each lands in a different segment
            fetches_before_close = fh.stats.value("fetches")
            (yield from fh.close())
            return fetches_before_close

        res = run(2, main)
        assert all(f >= 2 for f in res.returns)

    def test_numpy_destination(self):
        def main(env):
            (yield from self._write_file(env))
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg_for(256, env.size, 32)))
            dest = np.zeros(16, dtype=np.uint8)
            (yield from fh.read_at(16, dest))
            (yield from fh.fetch())
            (yield from fh.close())
            assert dest.tobytes() == bytes(range(16, 32))

        run(2, main)


class TestGeneralPath:
    """Calls the one-piece/in-segment early exits do not take."""

    def test_payload_shapes_and_segment_straddles(self):
        from repro.simmpi.datatypes import INT

        ints = np.arange(10, 18, dtype="<i4")

        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(256, env.size, 32)))
            if env.rank == 0:
                # count/datatype trims the buffer: 3 of 8 ints
                assert (yield from fh.write_at(0, ints, 3, INT)) == 12
                # a bytes payload, then one straddling two segments
                assert (yield from fh.write_at(12, b"ab")) == 2
                assert (yield from fh.write_at(28, b"0123456789")) == 10
                # a non-contiguous array goes out in C order
                assert (yield from fh.write_at(40, ints[::2])) == 16
                with pytest.raises(TcioError, match="too small"):
                    (yield from fh.write_at(0, ints, 9, INT))
            else:
                # three segments: [90,96) + [96,128) + [128,134)
                assert (yield from fh.write_at(90, bytes(range(44)))) == 44
            (yield from fh.close())
            stats = fh.stats.as_dict()

            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg_for(256, env.size, 32)))
            dest = np.full(4, -1, dtype="<i4")
            # count smaller than the destination fills only its head
            assert (yield from fh.read_at(0, dest, 2, INT)) == 8
            wide = bytearray(50)
            assert (yield from fh.read_at(88, wide, 46)) == 46  # three segments
            with pytest.raises(TcioError, match="requested"):
                (yield from fh.read_at(0, dest, 5, INT))
            (yield from fh.close())
            return stats, dest.tolist(), bytes(wide)

        res = run(2, main)
        expected = bytearray(134)
        expected[0:12] = ints[:3].tobytes()
        expected[12:14] = b"ab"
        expected[28:38] = b"0123456789"
        expected[40:56] = ints[::2].tobytes()
        expected[90:134] = bytes(range(44))
        assert res.pfs.lookup("f").contents() == bytes(expected)
        (w0, dest0, wide0), (w1, _dest1, _wide1) = res.returns
        assert (w0["write_calls"], w0["written_bytes"]) == (4, 40)
        assert (w1["write_calls"], w1["written_bytes"]) == (1, 44)
        assert dest0 == [10, 11, -1, -1]
        assert wide0 == bytes(expected[88:134]) + b"\x00" * 4


class TestModesAndErrors:
    def test_strided_memoryview_read_target_rejected(self):
        """A non-contiguous target is a TcioError for every buffer type."""

        def main(env):
            env.pfs.create("f")
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg_for(64, env.size, 16)))
            strided = np.zeros(8, "u1")[::2]
            for dest in (strided, memoryview(np.zeros(8, "u1"))[::2]):
                with pytest.raises(TcioError, match="C-contiguous"):
                    (yield from fh.read_at(0, dest))
            with pytest.raises(TcioError, match="read-only"):
                (yield from fh.read_at(0, b"abcd"))
            (yield from fh.close())

        run(1, main)

    def test_read_on_write_handle_rejected(self):
        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16)))
            with pytest.raises(TcioError):
                (yield from fh.read_at(0, bytearray(4)))
            (yield from fh.close())

        run(2, main)

    def test_write_on_read_handle_rejected(self):
        def main(env):
            env.pfs.create("f")
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg_for(64, env.size, 16)))
            with pytest.raises(TcioError):
                (yield from fh.write_at(0, b"x"))
            (yield from fh.close())

        run(2, main)

    def test_bad_mode_rejected(self):
        def main(env):
            with pytest.raises(TcioError):
                (yield from TcioFile.open(env, "f", 0x99))

        run(1, main)

    def test_ops_after_close_rejected(self):
        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16)))
            (yield from fh.close())
            with pytest.raises(TcioError):
                (yield from fh.write_at(0, b"x"))

        run(1, main)

    def test_capacity_overflow_raises(self):
        def main(env):
            cfg = TcioConfig(segment_size=16, segments_per_process=1)
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg))
            with pytest.raises(TcioError, match="level-2"):
                # segment index beyond the per-rank slot capacity
                (yield from fh.write_at(16 * env.size * 3, b"x"))
                (yield from fh.flush())
            # leave cleanly: drop the stuck block, then close collectively
            fh.level1._blocks = []
            fh.level1.aligned_segment = None
            (yield from fh.close())

        run(2, main)

    def test_seek_modes(self):
        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16)))
            fh.seek(10)
            assert fh.seek(5, SEEK_CUR) == 15
            with pytest.raises(TcioError):
                fh.seek(-1, SEEK_SET)
            with pytest.raises(TcioError):
                fh.seek(0, 42)
            (yield from fh.close())

        run(1, main)


class TestRandomizedRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 480), st.integers(1, 40)),
            min_size=1,
            max_size=12,
        )
    )
    def test_random_disjointified_writes_match_reference(self, raw_writes):
        """Random per-rank write streams produce exactly the reference file."""
        # Make writes rank-disjoint: rank r owns bytes where (offset//8)%2==r
        nranks = 2
        reference = bytearray(1024)
        per_rank: dict[int, list[tuple[int, bytes]]] = {0: [], 1: []}
        for off, ln in raw_writes:
            for pos in range(off, off + ln):
                owner = (pos // 8) % nranks
                payload = bytes([(pos * 7 + owner * 3) % 255 + 1])
                per_rank[owner].append((pos, payload))
                reference[pos] = payload[0]
        high = max((off + ln for off, ln in raw_writes), default=0)

        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg_for(1024, env.size, 32)))
            for pos, payload in per_rank[env.rank]:
                (yield from fh.write_at(pos, payload))
            (yield from fh.close())

        res = run_mpi(nranks, main, cluster=make_test_cluster())
        got = res.pfs.lookup("f").contents()
        assert got == bytes(reference[:high])


def struct_pack(i, r):
    import struct

    return struct.pack("<i", i + 10 * r) + struct.pack("<d", i + 100.0 * r)
