"""One journal append per rank and epoch.

``EpochJournal.write_ahead`` writes a rank's records for an epoch as one
contiguous append of exactly two PFS writes: the first record's
header+extents, then the ``mid-flush`` crash point, then every other
byte. The journal's bytes stay the per-record concatenation the format
defines, and a crash at ``mid-flush`` still tears exactly one record at
the journal's tail.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.crash import recover
from repro.crash.fsck import fsck
from repro.crash.journal import (
    is_journal_file,
    iter_records,
    pack_record_head,
    rank_journal,
    scan_journals,
)
from repro.faults import FaultPlan, FaultSpec
from repro.pfs.filesystem import PfsClient
from repro.tcio import TCIO_WRONLY, TcioConfig, tcio_open
from tests.conftest import run_small

NRANKS = 2
SEGMENT = 64
SEGMENTS = 8  # per epoch: every rank owns SEGMENTS // NRANKS = 4 of them
EPOCH_BYTES = SEGMENTS * SEGMENT
VICTIM = 1


def _phase_bytes(epoch: int) -> bytes:
    """The bytes epoch *epoch* (1 or 2) writes at ``(epoch-1) * EPOCH_BYTES``."""
    return bytes((epoch * 37 + i) % 251 for i in range(EPOCH_BYTES))


def _main(env):
    config = TcioConfig(
        segment_size=SEGMENT, segments_per_process=2 * SEGMENTS, journal="epoch"
    )
    fh = yield from tcio_open(env, "f", TCIO_WRONLY, config)
    for epoch in (1, 2):
        base, data = (epoch - 1) * EPOCH_BYTES, _phase_bytes(epoch)
        # each rank writes the other rank's segments (so the deposit is
        # remote), 16-byte blocks in ascending order
        for g in range(SEGMENTS):
            if g % NRANKS != env.rank:
                for lo in range(g * SEGMENT, (g + 1) * SEGMENT, 16):
                    yield from fh.write_at(base + lo, data[lo : lo + 16])
        if epoch == 1:
            yield from fh.flush()
    yield from fh.close()


@pytest.fixture
def journal_writes(monkeypatch):
    """``journal name -> [(offset, nbytes), ...]`` of every PFS write."""
    writes = defaultdict(list)
    write = PfsClient.write

    def counting(self, file, offset, data, **kw):
        name = file if isinstance(file, str) else file.name
        if is_journal_file(name, "f"):
            writes[name].append((offset, len(data)))
        return write(self, file, offset, data, **kw)

    monkeypatch.setattr(PfsClient, "write", counting)
    return writes


def _expected_journal(rank: int) -> tuple[bytes, list[tuple[int, int]]]:
    """The journal image *rank* must leave, and its two expected PFS writes
    per epoch as ``(offset, nbytes)``: the first record's header+extents,
    then the rest of the epoch's records."""
    image, writes = b"", []
    for epoch in (1, 2):
        base, data = (epoch - 1) * EPOCH_BYTES, _phase_bytes(epoch)
        start, first = len(image), None
        for g in range(rank, SEGMENTS, NRANKS):  # ascending segment order
            payload = data[g * SEGMENT : (g + 1) * SEGMENT]
            lo = base + g * SEGMENT
            head = pack_record_head(epoch, lo // SEGMENT, [(lo, lo + SEGMENT)], payload)
            first = len(head) if first is None else first
            image += head + payload
        writes += [(start, first), (start + first, len(image) - start - first)]
    return image, writes


def test_two_writes_per_epoch_and_bytes_per_record(journal_writes):
    res = run_small(NRANKS, _main)
    assert res.aborted is None
    assert res.pfs.lookup("f").contents() == _phase_bytes(1) + _phase_bytes(2)
    for rank in range(NRANKS):
        name = rank_journal("f", rank)
        image, writes = _expected_journal(rank)
        assert res.pfs.lookup(name).contents() == image
        assert journal_writes[name] == writes
    scan = scan_journals(res.pfs, "f")
    assert scan.committed == 2 and scan.torn == 0
    for rank in range(NRANKS):
        mine = [rec for jname, rec in scan.records if jname == rank_journal("f", rank)]
        assert [rec.epoch for rec in mine] == [1] * 4 + [2] * 4
        assert all(not rec.torn for rec in mine)
    assert fsck(res.pfs, "f").clean


def test_mid_flush_crash_tears_one_record_and_recovers_epoch_one():
    count = FaultPlan(FaultSpec(), 7, scope="crash-count")
    run_small(NRANKS, _main, faults=count)
    hits = count.step_hits[("mid-flush", VICTIM)]
    assert hits == 2  # once per epoch, not once per record
    plan = FaultPlan(
        FaultSpec(crash_rank=VICTIM, crash_step="mid-flush", crash_after=hits),
        7, scope="crash",
    )
    res = run_small(NRANKS, _main, faults=plan)
    assert res.aborted is not None
    torn = 0
    for rank in range(NRANKS):
        records = iter_records(res.pfs.lookup(rank_journal("f", rank)).contents())
        # epoch 1 intact; epoch 2 is at most its first header (a peer may
        # have reached its own crash point before the victim died)
        assert [rec.epoch for rec in records[:4]] == [1] * 4
        assert not any(rec.torn for rec in records[:4]) and len(records) <= 5
        if rank == VICTIM:
            assert len(records) == 5
        if len(records) == 5:
            assert records[-1].torn and records[-1].epoch == 2
            assert records[-1].payload == b""
            torn += 1
    report = recover(res.pfs, "f")
    assert (report.committed_epoch, report.eof, report.torn_records) == (1, EPOCH_BYTES, torn)
    assert res.pfs.lookup("f").contents() == _phase_bytes(1)
    assert fsck(res.pfs, "f").clean
