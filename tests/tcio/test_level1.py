"""Level-1 buffer combining and the lazy-read log."""

import pytest
from hypothesis import given, strategies as st

from repro.tcio.level1 import Level1Buffer, ReadLog
from repro.util.errors import TcioError
from repro.util.intervals import merge_ranges


class TestLevel1Buffer:
    def test_place_and_take(self):
        b = Level1Buffer(100)
        b.align(5)
        b.place(10, b"abc")
        b.place(50, b"xy")
        seg, disps, lens, payload = b.take()
        assert seg == 5
        assert (list(disps), list(lens), payload) == ([10, 50], [3, 2], b"abcxy")
        assert b.empty
        assert b.aligned_segment is None

    def test_adjacent_blocks_merge(self):
        b = Level1Buffer(100)
        b.align(0)
        b.place(0, b"aa")
        b.place(2, b"bb")
        b.place(4, b"cc")
        _, disps, lens, payload = b.take()
        assert (list(disps), list(lens), payload) == ([0], [6], b"aabbcc")

    def test_overlapping_blocks_coalesce_with_last_writer_wins(self):
        b = Level1Buffer(100)
        b.align(0)
        b.place(0, b"aaaa")
        b.place(2, b"BB")
        _, disps, lens, payload = b.take()
        assert (list(disps), list(lens), payload) == ([0], [4], b"aaBB")

    def test_out_of_order_placement_sorts(self):
        b = Level1Buffer(100)
        b.align(0)
        b.place(50, b"late")
        b.place(0, b"early")
        _, disps, _, _ = b.take()
        assert list(disps) == [0, 50]

    def test_realign_nonempty_rejected(self):
        b = Level1Buffer(100)
        b.align(1)
        b.place(0, b"x")
        with pytest.raises(TcioError):
            b.align(2)

    def test_place_outside_segment_rejected(self):
        b = Level1Buffer(10)
        b.align(0)
        with pytest.raises(TcioError):
            b.place(8, b"abc")

    def test_place_unaligned_rejected(self):
        b = Level1Buffer(10)
        with pytest.raises(TcioError):
            b.place(0, b"x")

    def test_take_unaligned_rejected(self):
        with pytest.raises(TcioError):
            Level1Buffer(10).take()


class TestReadLog:
    def _record(self, log, offset, length):
        return log.record(memoryview(bytearray(length)), offset, length)

    def test_records_and_drains(self):
        log = ReadLog(100)
        assert self._record(log, 0, 10)
        assert self._record(log, 50, 10)
        assert not log.empty
        bases, which, at, offsets, lengths = log.drain()
        assert len(which) == len(at) == 2
        assert (list(offsets), list(lengths)) == ([0, 50], [10, 10])
        assert log.empty

    def test_overflow_detection(self):
        log = ReadLog(100)
        assert self._record(log, 0, 10)
        assert not self._record(log, 95, 10)  # span would be 105 > 100
        assert self._record(log, 50, 10)
        assert self._record(log, 90, 10)  # exactly 100 is allowed
        assert list(log.drain()[3]) == [0, 50, 90]  # a refused read records nothing

    def test_empty_log_never_overflows(self):
        log = ReadLog(10)
        assert log.record(memoryview(bytearray(1)), 0, 10**9)


class TestEarlyExitsMatchTheGeneralPath:
    """``place``'s extend/append shortcuts and ``record``'s folded overflow
    test against flat models of what they compute."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.binary(max_size=24)), max_size=40
        )
    )
    def test_place_matches_merged_ranges_and_flat_bytes(self, placements):
        size = 64
        b = Level1Buffer(size)
        b.align(0)
        model = bytearray(size)
        placed = []
        for disp, payload in placements:
            payload = payload[: size - disp]
            b.place(disp, payload)
            model[disp : disp + len(payload)] = payload
            if payload:
                placed.append((disp, disp + len(payload)))
        merged = merge_ranges(placed)
        assert b.data == model
        _, disps, lens, payload = b.take()
        assert list(zip(disps, lens)) == [(lo, hi - lo) for lo, hi in merged]
        assert payload == b"".join(bytes(model[lo:hi]) for lo, hi in merged)

    @given(
        st.integers(1, 200),
        st.lists(st.tuples(st.integers(0, 500), st.integers(1, 120)), max_size=40),
    )
    def test_record_refuses_exactly_on_window_overflow(self, window, reads):
        log = ReadLog(window)
        kept = []
        for offset, length in reads:
            dest = memoryview(bytearray(length))
            span = [(o, o + n) for _, o, n in kept] + [(offset, offset + length)]
            overflows = bool(kept) and (
                max(hi for _, hi in span) - min(lo for lo, _ in span) > window
            )
            assert log.record(dest, offset, length) is not overflows
            if not overflows:
                kept.append((dest, offset, length))
        assert log.empty is (not kept)
        bases, *columns = log.drain()
        drained = list(zip(*columns))
        assert len(drained) == len(kept)
        # each read lands at the start of its own buffer, held once
        assert all(
            bases[w].obj is dest.obj and a == 0 and (o, n) == (offset, length)
            for (w, a, o, n), (dest, offset, length) in zip(drained, kept)
        )
        assert len(bases) == len(kept)
        assert log.empty
