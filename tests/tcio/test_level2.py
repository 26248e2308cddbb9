"""Level-2 buffer mechanics: push/pull, loading protocol, capacity."""

import pytest

from repro.crash.harness import STEPS, crash_free_reference, run_cell
from repro.simmpi import run_mpi
from repro.simmpi import collectives as coll
from repro.tcio import TCIO_RDONLY, TCIO_WRONLY, TcioConfig, TcioFile
from repro.tcio.level2 import Level2Buffer
from repro.util.errors import TcioError
from tests.conftest import make_test_cluster
from tests.tcio.test_collective_point import GOLDEN, run_case


def run(n, fn):
    return run_mpi(n, fn, cluster=make_test_cluster())


class TestPushBlocks:
    def test_local_vs_remote_flush_accounting(self):
        # seg size 16, 2 ranks: rank 0 owns even global segments.
        cfg = TcioConfig(segment_size=16, segments_per_process=8)

        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg))
            if env.rank == 0:
                (yield from fh.write_at(0, b"x" * 16))  # segment 0: owned by rank 0
                (yield from fh.write_at(16, b"y" * 16))  # segment 1: owned by rank 1
            (yield from fh.close())
            return fh.stats.value("local_flushes"), fh.stats.value("remote_flushes")

        res = run(2, main)
        assert res.returns[0] == (1, 1)

    def test_put_blocks_counts_combined_blocks(self):
        cfg = TcioConfig(segment_size=64, segments_per_process=8)

        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg))
            if env.rank == 0:
                # three disjoint pieces within segment 1 (owned by rank 1)
                (yield from fh.write_at(64, b"a"))
                (yield from fh.write_at(70, b"b"))
                (yield from fh.write_at(80, b"c"))
            (yield from fh.close())
            return fh.stats.value("remote_flushes"), fh.stats.value("put_blocks")

        res = run(2, main)
        flushes, blocks = res.returns[0]
        assert flushes == 1  # one indexed Put...
        assert blocks == 3  # ...carrying three blocks

    def test_dirty_segments_tracked_per_owner(self):
        cfg = TcioConfig(segment_size=16, segments_per_process=8)

        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg))
            if env.rank == 0:
                (yield from fh.write_at(0, b"x" * 48))  # segments 0,1,2
            (yield from fh.flush())
            owned = fh.level2.owned_dirty_segments()
            (yield from fh.close())
            return owned

        res = run(2, main)
        assert res.returns[0] == [0, 2]  # rank 0 owns even segments
        assert res.returns[1] == [1]

    def test_capacity_error_names_the_config_knob(self):
        cfg = TcioConfig(segment_size=16, segments_per_process=2)

        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg))
            with pytest.raises(TcioError, match="segments_per_process"):
                (yield from fh.write_at(16 * env.size * 2, b"z"))
                (yield from fh._flush_level1())
            fh.level1._blocks = []
            fh.level1.aligned_segment = None
            (yield from fh.close())

        run(2, main)


class TestReadProtocol:
    def _seed(self, env, nbytes=256):
        f = env.pfs.create("f")
        f.write_bytes(0, bytes(i % 251 for i in range(nbytes)))
        (yield from coll.barrier(env.comm))

    def test_segment_loaded_once_globally(self):
        cfg = TcioConfig(segment_size=64, segments_per_process=8)

        def main(env):
            (yield from self._seed(env))
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg))
            buf = bytearray(8)
            (yield from fh.read_at(0, buf))  # everyone wants segment 0
            (yield from fh.fetch())
            (yield from fh.close())
            return fh.stats.value("segment_loads")

        res = run(4, main)
        assert sum(res.returns) == 1  # one load for the whole job

    def test_loads_spread_across_owners(self):
        cfg = TcioConfig(segment_size=64, segments_per_process=8)

        def main(env):
            (yield from self._seed(env, 64 * 4))
            fh = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg))
            bufs = [bytearray(4) for _ in range(4)]
            for i, b in enumerate(bufs):
                (yield from fh.read_at(i * 64, b))
            (yield from fh.fetch())
            (yield from fh.close())
            assert all(bytes(b) == bytes((i * 64 + k) % 251 for k in range(4))
                       for i, b in enumerate(bufs))
            return fh.stats.value("segment_loads")

        res = run(4, main)
        assert sum(res.returns) == 4
        # owner-first loading: each rank loaded exactly its own segment
        assert res.returns == [1, 1, 1, 1]

    def test_reader_of_dirty_segment_rejected_cleanly(self):
        # mixed-mode access is unsupported: a write handle plus a read
        # handle on the same open generation cannot exist, so this checks
        # the directory isolation across generations instead.
        cfg = TcioConfig(segment_size=64, segments_per_process=8)

        def main(env):
            fh = (yield from TcioFile.open(env, "f", TCIO_WRONLY, cfg))
            (yield from fh.write_at(env.rank * 4, bytes([env.rank]) * 4))
            (yield from fh.close())
            fh2 = (yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg))
            # fresh generation: nothing is dirty, data comes from storage
            assert not fh2.directory.dirty
            got = (yield from fh2.read_now(0, env.size * 4))
            (yield from fh2.close())
            assert got == b"".join(bytes([r]) * 4 for r in range(env.size))

        run(3, main)


class TestOwnedDirtySegments:
    """The own-slot walk returns what a scan of every rank's dirty
    segments did, in the same order, at every call of the collective
    point and survive cells."""

    @pytest.fixture
    def mismatches(self, monkeypatch):
        walk = Level2Buffer.owned_dirty_segments
        seen = {"calls": 0, "bad": []}

        def checked(level2):
            owned = walk(level2)
            scan = sorted(
                g
                for g in level2.directory.dirty
                if level2.mapping.owner_of_segment(g) == level2.rank
            )
            seen["calls"] += 1
            if owned != scan:
                seen["bad"].append((level2.rank, owned, scan))
            return owned

        monkeypatch.setattr(Level2Buffer, "owned_dirty_segments", checked)
        return seen

    @pytest.mark.parametrize("key", sorted(GOLDEN), ids=str)
    def test_collective_point_cells(self, key, mismatches):
        run_case(*key)
        assert mismatches["calls"] and not mismatches["bad"]

    @pytest.mark.parametrize("step", STEPS)
    def test_survive_cells(self, step, mismatches):
        reference = crash_free_reference(aggregation="flat", nranks=4, cores_per_node=2)
        cell = run_cell(step, survive=True, reference=reference)
        assert cell.ok, cell.summary()
        assert mismatches["calls"] and not mismatches["bad"]
