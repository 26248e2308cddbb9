"""The collective point replays one schedule in every mode.

``TcioFile.flush`` and ``TcioFile.close`` run the same coroutine,
``_collective_point(final)``; which stages it runs depends on
``journal`` and on whether the point is the final one. This differential
pins, per mode, the bytes, the fsck verdict, the write-back and commit
counts, and the two numbers that move if a collective, crash point or
PFS request is added, dropped or reordered: the job's simulated seconds
and its engine event count. The golden values were recorded on the
three-routine implementation (``_flush_write_body`` /
``_close_write_body`` / ``_flush_epoch``) this one replaced. The
``epoch`` cells' seconds were re-recorded, lower, when each rank's
journal became one stripe on OST ``rank % n_osts``: the same requests
then stopped queueing on one OST. Their counts stayed as recorded.
Their seconds and counts were re-recorded, lower, when each rank's
write-ahead records for an epoch became one journal append of two PFS
writes (the first record's header, then the rest) instead of two writes
per record: the same journal bytes, in fewer requests and engine
events. Bytes, fsck verdict, write-backs and commits stayed as recorded.
"""

from __future__ import annotations

import pytest

from repro.crash.fsck import fsck
from repro.crash.journal import rank_journal
from repro.tcio import TCIO_WRONLY, TcioConfig, tcio_open
from tests.conftest import make_test_cluster, run_small

NRANKS = 4
BLOCK = 16
SEGMENT = 64
ROUNDS = 6  # interleaved block rounds per write burst


def _block(rank: int, index: int) -> bytes:
    return bytes([1 + rank + 16 * (index % 15)]) * BLOCK


def _write_burst(fh, rank: int, first: int):
    for i in range(first, first + ROUNDS):
        yield from fh.write_at((i * NRANKS + rank) * BLOCK, _block(rank, i))


def reference(bursts: int) -> bytes:
    """The analytic file image: round i holds rank 0..P-1's blocks."""
    return b"".join(
        _block(rank, i)
        for i in range(bursts * ROUNDS)
        for rank in range(NRANKS)
    )


def run_case(journal: str, aggregation: str, script: str, ft: bool):
    config = TcioConfig(
        segment_size=SEGMENT,
        segments_per_process=8,
        journal=journal,
        aggregation=aggregation,
        ft=ft,
    )

    def main(env):
        fh = yield from tcio_open(env, "f", TCIO_WRONLY, config)
        yield from _write_burst(fh, env.rank, 0)
        if script == "two-flushes":
            yield from fh.flush()
            yield from _write_burst(fh, env.rank, ROUNDS)
            yield from fh.flush()
        yield from fh.close()
        commits = fh.stats.registry.get("tcio.journal.commits")
        return (
            fh.stats.as_dict()["segment_writebacks"],
            int(commits.count) if commits is not None else 0,
        )

    # two ranks per node, so node aggregation has a remote leader to drain to
    return run_small(
        NRANKS, main, cluster=make_test_cluster(nodes=4, cores_per_node=2)
    )


#: (journal, aggregation, script, ft) ->
#: (segment_writebacks, journal commits, write_seconds, host.engine.events);
#: script "close" is write + close, "two-flushes" is write, flush, write,
#: flush, close.
GOLDEN = {
    ("off", "flat", "close", False): (6, 0, 6.484722272497418e-05, 131),
    ("off", "flat", "two-flushes", False): (12, 0, 0.00011507416824442156, 233),
    ("off", "node", "close", False): (6, 0, 6.859064640146494e-05, 120),
    ("off", "node", "two-flushes", False): (12, 0, 0.00011934081791979081, 208),
    ("epoch", "flat", "close", False): (6, 1, 9.609530131387714e-05, 183),
    ("epoch", "flat", "close", True): (6, 1, 9.609530131387714e-05, 183),
    ("epoch", "flat", "two-flushes", False): (12, 2, 0.0001937457095971109, 402),
    ("epoch", "flat", "two-flushes", True): (12, 2, 0.0001937457095971109, 402),
    ("epoch", "node", "close", False): (6, 1, 9.983872499036789e-05, 172),
    ("epoch", "node", "two-flushes", False): (12, 2, 0.00019711235927248022, 375),
}


@pytest.mark.parametrize(
    "journal,aggregation,script,ft", sorted(GOLDEN), ids=str
)
def test_replays_recorded_schedule(journal, aggregation, script, ft):
    res = run_case(journal, aggregation, script, ft)
    bursts = 2 if script == "two-flushes" else 1
    assert res.pfs.lookup("f").contents() == reference(bursts)
    assert fsck(res.pfs, "f").clean
    writebacks = sum(r[0] for r in res.returns)
    commits = sum(r[1] for r in res.returns)
    events = int(res.trace.registry.counter("host.engine.events").total)
    assert (writebacks, commits, res.elapsed, events) == GOLDEN[
        (journal, aggregation, script, ft)
    ]
    if journal == "epoch":  # each journal is one stripe on its own OST
        n_osts = res.pfs.spec.n_osts
        for r in range(NRANKS):
            layout = res.pfs.lookup(rank_journal("f", r)).layout
            assert (layout.stripe_count, layout.first_ost) == (1, r % n_osts)
