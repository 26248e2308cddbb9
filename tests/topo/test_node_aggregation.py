"""End-to-end node-aggregation tests: fewer messages, same bytes.

The workload shape is the node-collapsible one from docs/topology.md:
every access block is ``stripe / ranks_per_node`` bytes and consecutive
ranks interleave, so one node's ranks fill each stripe-sized segment
together and the leader can collapse the node's cross-node traffic.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.mpiio import IoHints, MODE_CREATE, MODE_RDONLY, MODE_RDWR, MpiFile
from repro.simmpi.datatypes import BYTE, Contiguous
from repro.tcio import TCIO_WRONLY, TcioConfig, TcioFile
from repro.tcio.level2 import SegmentDirectory
from tests.conftest import make_test_cluster, run_small

NPROCS = 16
CORES = 4
BLK = 4096 // CORES  # stripe // ranks_per_node
NBLOCKS = 8


def _cluster(**kw):
    kw.setdefault("nodes", NPROCS // CORES)
    kw.setdefault("cores_per_node", CORES)
    return make_test_cluster(**kw)


def _payload(rank: int, i: int) -> bytes:
    return bytes([(rank * NBLOCKS + i) % 251]) * BLK


def _expected(nprocs: int = NPROCS) -> bytes:
    return b"".join(
        _payload(r, i) for i in range(NBLOCKS) for r in range(nprocs)
    )


def _tcio_cfg(env, aggregation: str, staging_segments: int | None = None):
    total = NPROCS * NBLOCKS * BLK
    cfg = TcioConfig.sized_for(total, env.size, env.pfs.spec.stripe_size)
    if aggregation == "flat":
        return cfg
    return replace(
        cfg,
        aggregation="node",
        staging_segments=staging_segments
        or max(32, cfg.segments_per_process * CORES),
    )


def _tcio_write(aggregation: str, staging_segments: int | None = None, **run_kw):
    def main(env):
        fh = yield from TcioFile.open(
            env, "na.dat", TCIO_WRONLY,
            _tcio_cfg(env, aggregation, staging_segments),
        )
        for i in range(NBLOCKS):
            (yield from fh.write_at((i * env.size + env.rank) * BLK, _payload(env.rank, i)))
        (yield from fh.close())

    run_kw.setdefault("cluster", _cluster())
    return run_small(NPROCS, main, **run_kw)


def _ocio_write(aggregation: str, **run_kw):
    def main(env):
        hints = IoHints(cb_aggregation=aggregation)
        etype = Contiguous(BLK, BYTE)
        filetype = etype.vector(NBLOCKS, 1, env.size)
        fh = (yield from MpiFile.open(env, "na.dat", MODE_RDWR | MODE_CREATE, hints))
        (yield from fh.set_view(env.rank * BLK, etype, filetype))
        (yield from fh.write_all(b"".join(_payload(env.rank, i) for i in range(NBLOCKS))))
        (yield from fh.close())

    run_kw.setdefault("cluster", _cluster())
    return run_small(NPROCS, main, **run_kw)


def _msgs(res) -> int:
    return int(res.trace.summary().get("net.msg", (0, 0))[0])


class TestTcioNodeAggregation:
    def test_fewer_messages_same_bytes(self):
        flat = _tcio_write("flat")
        node = _tcio_write("node")
        assert flat.pfs.lookup("na.dat").contents() == _expected()
        assert node.pfs.lookup("na.dat").contents() == _expected()
        assert _msgs(node) < _msgs(flat)

    def test_topo_counters_recorded(self):
        summary = _tcio_write("node").trace.summary()
        assert summary.get("topo.deposit.bytes", (0, 0))[1] > 0
        assert summary.get("topo.drain.messages", (0, 0))[0] > 0
        assert summary.get("topo.staging.bytes", (0, 0))[1] > 0

    def test_overflow_falls_back_flat_and_stays_correct(self):
        res = _tcio_write("node", staging_segments=1)
        summary = res.trace.summary()
        assert summary.get("topo.staging.overflow", (0, 0))[0] > 0
        assert res.pfs.lookup("na.dat").contents() == _expected()

    def test_single_node_is_a_noop(self):
        res = _tcio_write(
            "node", cluster=_cluster(nodes=1, cores_per_node=NPROCS)
        )
        summary = res.trace.summary()
        assert summary.get("topo.deposit.bytes", (0, 0))[1] == 0
        assert res.pfs.lookup("na.dat").contents() == _expected()

    def test_staging_bypass_keeps_program_order(self):
        # A deposit that overflows the one-segment staging buffer goes to
        # the owner at once; the node's older staged pieces for the same
        # owner must land before it, not on top of it at the next drain.
        writes = [(2 * 64, b"A"), (3 * 64, b"B"), (2 * 64, b"C"), (3 * 64, b"D")]

        def image(aggregation: str):
            cfg = TcioConfig(
                segment_size=64, segments_per_process=4,
                aggregation=aggregation, staging_segments=1,
            )

            def main(env):
                fh = yield from TcioFile.open(env, "po.dat", TCIO_WRONLY, cfg)
                if env.rank == 0:
                    for offset, byte in writes:
                        yield from fh.write_at(offset, byte * 40)
                yield from fh.close()

            res = run_small(4, main, cluster=make_test_cluster(nodes=2, cores_per_node=2))
            return res.pfs.lookup("po.dat").contents(), res.trace.summary()

        flat, _ = image("flat")
        node, summary = image("node")
        assert summary.get("topo.staging.overflow", (0, 0))[0] > 0
        assert flat[128:168] == b"C" * 40 and flat[192:232] == b"D" * 40
        assert node == flat


@pytest.mark.parametrize("flushes", [1, 2])
@pytest.mark.parametrize("aggregation", ["flat", "node"])
@pytest.mark.parametrize("journal", ["off", "epoch"])
def test_every_round_reaches_the_file_with_per_segment_provenance(
    monkeypatch, journal, aggregation, flushes
):
    # The leader coalesces one owner's slots 0 and 1 into one block; each
    # deposit must still mark its own segment re-dirtied, or a journaled
    # second round skips that segment's write-back.
    noted: dict[int, list[tuple[int, int]]] = {}  # segment -> (disp, length) rows
    note_deposit = SegmentDirectory.note_deposit

    def recording(directory, g, disps, lens, src):
        noted.setdefault(g, []).extend(zip(disps, lens))
        note_deposit(directory, g, disps, lens, src)

    monkeypatch.setattr(SegmentDirectory, "note_deposit", recording)

    def round_payload(rank: int, i: int, r: int) -> bytes:
        return bytes([(rank * NBLOCKS + i + 97 * r) % 251]) * BLK

    def main(env):
        cfg = replace(_tcio_cfg(env, aggregation), journal=journal)
        assert cfg.segments_per_process == 2  # every owner has a slot 1
        fh = yield from TcioFile.open(env, "na.dat", TCIO_WRONLY, cfg)
        for r in range(flushes):
            if r:
                yield from fh.flush()
            for i in range(NBLOCKS):
                yield from fh.write_at((i * env.size + env.rank) * BLK, round_payload(env.rank, i, r))
        yield from fh.close()
        return fh.directory

    res = run_small(NPROCS, main, cluster=_cluster())
    d = res.returns[0]
    assert d.segment_size == 4096
    assert res.pfs.lookup("na.dat").contents() == b"".join(
        round_payload(r, i, flushes - 1) for i in range(NBLOCKS) for r in range(NPROCS)
    )
    assert set(noted) == d.dirty
    for rows in noted.values():
        assert all(0 <= disp and disp + n <= d.segment_size for disp, n in rows)
    # close wrote every dirty segment back, and a written-back segment
    # keeps no provenance rows
    assert d.flushed == d.dirty and not d.deposited


class TestOcioNodeAggregation:
    def test_fewer_messages_same_bytes(self):
        flat = _ocio_write("flat")
        node = _ocio_write("node")
        assert flat.pfs.lookup("na.dat").contents() == _expected()
        assert node.pfs.lookup("na.dat").contents() == _expected()
        assert _msgs(node) < _msgs(flat)

    def test_node_read_roundtrip(self):
        def seed(pfs):
            pfs.create("na.dat").write_bytes(0, _expected())

        def main(env):
            hints = IoHints(cb_aggregation="node")
            etype = Contiguous(BLK, BYTE)
            filetype = etype.vector(NBLOCKS, 1, env.size)
            fh = (yield from MpiFile.open(env, "na.dat", MODE_RDONLY, hints))
            (yield from fh.set_view(env.rank * BLK, etype, filetype))
            data = (yield from fh.read_all(NBLOCKS, etype))
            (yield from fh.close())
            return data

        res = run_small(NPROCS, main, cluster=_cluster(), pfs_init=seed)
        for rank, data in enumerate(res.returns):
            assert data == b"".join(_payload(rank, i) for i in range(NBLOCKS))

    def test_single_node_is_a_noop(self):
        res = _ocio_write(
            "node", cluster=_cluster(nodes=1, cores_per_node=NPROCS)
        )
        summary = res.trace.summary()
        assert summary.get("topo.drain.messages", (0, 0))[0] == 0
        assert res.pfs.lookup("na.dat").contents() == _expected()
