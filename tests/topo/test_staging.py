"""Unit tests for repro.topo.staging: bins, capacity, and coalescing."""

from __future__ import annotations

import bisect

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.topo import StagingBuffer, charge_staging_copy, coalesce_runs
from repro.util.intervals import merge_ranges


class TestStagingBuffer:
    def test_deposit_and_drain_roundtrip(self):
        stage = StagingBuffer(node=0, leader_world_rank=0)
        stage.deposit("a", [(0, b"xy")], 2)
        stage.deposit("a", [(4, b"z")], 1)
        stage.deposit("b", [(8, b"qq")], 2)
        assert stage.used == 5
        assert stage.keys() == ["a", "b"]
        assert stage.drain("a") == [(0, b"xy"), (4, b"z")]
        assert stage.used == 2
        assert stage.drain("a") == []  # draining twice is harmless
        assert stage.drain("b") == [(8, b"qq")]
        assert stage.used == 0

    def test_capacity_and_overflow(self):
        stage = StagingBuffer(node=0, leader_world_rank=0, capacity=10)
        assert not stage.would_overflow(10)
        stage.deposit("k", ["p"], 8)
        assert stage.would_overflow(3)
        assert not stage.would_overflow(2)
        stage.drain("k")
        assert not stage.would_overflow(10)

    def test_unbounded_never_overflows(self):
        stage = StagingBuffer(node=0, leader_world_rank=0)
        assert not stage.would_overflow(1 << 40)

    def test_peak_tracks_high_water_mark(self):
        stage = StagingBuffer(node=0, leader_world_rank=0)
        stage.deposit("a", ["x"], 7)
        stage.deposit("b", ["y"], 5)
        stage.drain("a")
        stage.deposit("c", ["z"], 1)
        assert stage.used == 6
        assert stage.peak == 12

    def test_drain_allocs_collects_attachments(self):
        stage = StagingBuffer(node=0, leader_world_rank=0)
        stage.deposit("k", ["x"], 4, allocation="alloc1")
        stage.deposit("k", ["y"], 4, allocation="alloc2")
        stage.deposit("k", ["z"], 4)
        assert stage.drain_allocs("k") == ["alloc1", "alloc2"]
        assert stage.drain_allocs("k") == []

    def test_keys_sorted_for_deterministic_drain(self):
        stage = StagingBuffer(node=0, leader_world_rank=0)
        for key in (3, 1, 2):
            stage.deposit(key, ["x"], 1)
        assert stage.keys() == [1, 2, 3]


class TestChargeStagingCopy:
    def test_charges_memory_time_without_messages(self):
        from tests.conftest import make_test_cluster, run_small

        def main(env):
            t0 = env.now
            (yield from charge_staging_copy(env.world, env.rank, 1 << 20))
            return env.now - t0

        res = run_small(2, main, cluster=make_test_cluster())
        assert all(dt > 0 for dt in res.returns)
        summary = res.trace.summary()
        assert summary.get("net.msg", (0, 0))[0] == 0
        assert summary.get("topo.staging.bytes", (0, 0))[1] == 2 * (1 << 20)

    def test_zero_bytes_is_free(self):
        from tests.conftest import make_test_cluster, run_small

        def main(env):
            t0 = env.now
            (yield from charge_staging_copy(env.world, env.rank, 0))
            return env.now - t0

        res = run_small(1, main, cluster=make_test_cluster())
        assert res.returns == [0.0]


def coalesce_pieces(pieces):
    """``coalesce_runs`` over ``(offset, payload)`` pieces, as ``(start, bytes)`` blocks."""
    offsets = np.array([off for off, _ in pieces], np.int64)
    lengths = np.array([len(b) for _, b in pieces], np.int64)
    starts, sizes, payload = coalesce_runs(offsets, lengths, b"".join(b for _, b in pieces))
    ends = np.cumsum(sizes).tolist()
    return [
        (start, payload[end - size : end])
        for start, size, end in zip(starts.tolist(), sizes.tolist(), ends)
    ]


class TestCoalesceBlocks:
    def test_empty(self):
        assert coalesce_pieces([]) == []
        assert coalesce_pieces([(3, b"")]) == []

    def test_touching_pieces_merge(self):
        out = coalesce_pieces([(0, b"ab"), (2, b"cd"), (10, b"z")])
        assert out == [(0, b"abcd"), (10, b"z")]

    def test_out_of_order_input(self):
        out = coalesce_pieces([(4, b"cd"), (0, b"ab"), (2, b"xy")])
        assert out == [(0, b"abxycd")]

    def test_overlap_later_deposit_wins(self):
        out = coalesce_pieces([(0, b"aaaa"), (1, b"BB")])
        assert out == [(0, b"aBBa")]

    def test_gap_preserved(self):
        out = coalesce_pieces([(0, b"a"), (2, b"b")])
        assert out == [(0, b"a"), (2, b"b")]


def oracle_coalesce(pieces):
    """The interval-merge-and-paint loop over ``(offset, payload)`` pieces
    that the array form replaced."""
    spans = merge_ranges((off, off + len(b)) for off, b in pieces)
    starts = [lo for lo, _ in spans]
    bufs = [bytearray(hi - lo) for lo, hi in spans]
    for off, blk in pieces:
        if blk:
            i = bisect.bisect_right(starts, off) - 1
            bufs[i][off - starts[i] : off - starts[i] + len(blk)] = blk
    return [(start, bytes(buf)) for start, buf in zip(starts, bufs)]


class TestCoalesceRuns:
    """The array form against the loop."""

    @given(st.lists(st.tuples(st.integers(0, 40), st.binary(max_size=6)), max_size=10))
    @example([])
    @example([(3, b"")])
    @example([(0, b"ab"), (2, b"cd"), (10, b"z")])  # touching pieces merge
    @example([(4, b"cd"), (0, b"ab"), (2, b"xy")])  # out-of-order input
    @example([(0, b"aaaa"), (1, b"BB")])  # on overlap the later deposit wins
    @example([(0, b"a"), (2, b"b")])  # a gap is preserved
    @settings(max_examples=300, deadline=None)
    def test_equals_the_loop(self, pieces):
        offsets = np.array([off for off, _ in pieces], np.int64)
        lengths = np.array([len(b) for _, b in pieces], np.int64)
        starts, sizes, payload = coalesce_runs(
            offsets, lengths, b"".join(b for _, b in pieces)
        )
        expected = oracle_coalesce(pieces)
        assert starts.tolist() == [start for start, _ in expected]
        assert sizes.tolist() == [len(b) for _, b in expected]
        assert payload == b"".join(b for _, b in expected)
