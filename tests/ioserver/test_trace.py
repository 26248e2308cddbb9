"""The workload-trace format: generation, invariants, persistence."""

from __future__ import annotations

import pytest

from repro.ioserver import (
    TraceOp,
    WorkloadTrace,
    expected_fetch,
    expected_image,
    generate_trace,
    load_trace,
    payload_bytes,
    save_trace,
)
from repro.util.errors import IoServerError


class TestGenerate:
    def test_same_seed_same_trace(self):
        a = generate_trace(3, 5)
        b = generate_trace(3, 5)
        assert a == b

    def test_different_seed_different_trace(self):
        assert generate_trace(3, 5) != generate_trace(4, 5)

    def test_structure(self):
        t = generate_trace(1, 4, epochs=3, writes_per_epoch=2, reads_per_client=1)
        t.validate()
        assert t.epochs == 3
        assert any(op.op == "fetch" for op in t.ops)
        assert t.written_bytes == sum(
            op.nbytes for op in t.ops if op.op == "write"
        )
        # Every client opens for write, flushes every epoch, closes twice
        # (write phase + read phase).
        for c in range(4):
            ops = [op.op for op in t.ops if op.client == c]
            assert ops.count("flush") == 3
            assert ops.count("open") == 2
            assert ops.count("close") == 2

    def test_seq_is_global_program_order(self):
        t = generate_trace(1, 3)
        seqs = [op.seq for op in t.ops]
        assert seqs == sorted(seqs) == list(range(len(t.ops)))

    def test_regions_are_disjoint_across_clients(self):
        t = generate_trace(9, 4, epochs=2, writes_per_epoch=3)
        region = 3 * 96
        for op in t.ops:
            if op.op != "write":
                continue
            slot = op.offset // region
            assert slot % 4 == op.client  # region id encodes the client
            assert op.offset + op.nbytes <= (slot + 1) * region

    def test_dense_trace_has_no_holes(self):
        t = generate_trace(5, 3, epochs=2, writes_per_epoch=2,
                           max_write_bytes=32, reads_per_client=0, dense=True)
        image = expected_image(t)
        assert len(image) == 2 * 3 * 2 * 32
        covered = bytearray(len(image))
        for op in t.ops:
            if op.op == "write":
                covered[op.offset : op.offset + op.nbytes] = b"\1" * op.nbytes
        assert all(covered)

    def test_fetches_stay_inside_eof(self):
        t = generate_trace(7, 5, reads_per_client=3)
        eof = len(expected_image(t))
        for op in t.ops:
            if op.op == "fetch":
                assert op.nbytes >= 1
                assert op.offset + op.nbytes <= eof

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(IoServerError):
            generate_trace(1, 0)
        with pytest.raises(IoServerError):
            generate_trace(1, 2, epochs=0)


class TestValidate:
    def test_unknown_op_rejected(self):
        t = WorkloadTrace(1, 1, "f", (TraceOp(0, 0, "destroy"),))
        with pytest.raises(IoServerError):
            t.validate()

    def test_out_of_range_client_rejected(self):
        t = WorkloadTrace(1, 1, "f", (TraceOp(0, 3, "open", mode="w"),))
        with pytest.raises(IoServerError):
            t.validate()

    def test_unbalanced_flushes_rejected(self):
        t = WorkloadTrace(
            1, 2, "f",
            (TraceOp(0, 0, "open", mode="w"), TraceOp(1, 1, "open", mode="w"),
             TraceOp(2, 0, "flush")),
        )
        with pytest.raises(IoServerError):
            t.validate()

    def test_unsorted_seq_rejected(self):
        t = WorkloadTrace(
            1, 1, "f", (TraceOp(5, 0, "open", mode="w"), TraceOp(2, 0, "close"))
        )
        with pytest.raises(IoServerError):
            t.validate()


class TestPayloads:
    def test_deterministic_and_distinct(self):
        a = payload_bytes(1, 2, 3, 64)
        assert a == payload_bytes(1, 2, 3, 64)
        assert a != payload_bytes(1, 2, 4, 64)
        assert a != payload_bytes(1, 3, 3, 64)
        assert len(payload_bytes(1, 2, 3, 100)) == 100

    def test_prefix_stable(self):
        # Counter mode: a shorter request is a prefix of a longer one.
        assert payload_bytes(9, 0, 1, 32) == payload_bytes(9, 0, 1, 80)[:32]


class TestExpectedImage:
    def test_epoch_prefix_is_a_prefix_in_time_not_space(self):
        t = generate_trace(3, 2, epochs=2, reads_per_client=0)
        one = expected_image(t, epochs=1)
        full = expected_image(t)
        assert len(full) > len(one)
        # Epoch-2 regions are disjoint from epoch 1's, so the committed
        # epoch-1 bytes persist unchanged into the full image.
        assert full[: len(one)] == one

    def test_applies_writes_in_seq_order(self):
        # Two self-overlapping writes: the later seq must win.
        t = WorkloadTrace(
            7, 1, "f",
            (
                TraceOp(0, 0, "open", mode="w"),
                TraceOp(1, 0, "write", offset=0, nbytes=8),
                TraceOp(2, 0, "write", offset=4, nbytes=8),
                TraceOp(3, 0, "flush"),
                TraceOp(4, 0, "close"),
            ),
        )
        image = expected_image(t)
        assert image[:4] == payload_bytes(7, 0, 1, 8)[:4]
        assert image[4:12] == payload_bytes(7, 0, 2, 8)

    def test_expected_fetch_slices_final_image(self):
        t = generate_trace(2, 3, reads_per_client=2)
        image = expected_image(t)
        for op in t.ops:
            if op.op == "fetch":
                assert expected_fetch(t, op) == image[
                    op.offset : op.offset + op.nbytes
                ]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        t = generate_trace(11, 6, epochs=2, reads_per_client=1)
        path = str(tmp_path / "t.json")
        save_trace(t, path)
        assert load_trace(path) == t

    def test_format_marker_checked(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write('{"format": "something-else", "version": 1}')
        with pytest.raises(IoServerError):
            load_trace(path)

    def test_version_checked(self, tmp_path):
        t = generate_trace(1, 2)
        path = str(tmp_path / "t.json")
        save_trace(t, path)
        doc = open(path).read().replace('"version": 1', '"version": 99')
        with open(path, "w") as fh:
            fh.write(doc)
        with pytest.raises(IoServerError):
            load_trace(path)
