"""Lazy reads land byte for byte in every kind of destination.

A pending read is an address — a held base buffer and an offset in it —
so what matters is that every way an application hands TCIO a target
resolves to the right bytes: views of one ``bytearray`` or ndarray,
ndarray slices passed directly, a target whose exporter has no flat byte
view (it becomes its own base), and targets that overlap, where the
later read wins. Each program runs with a few reads and with many (one
base serving many fetches).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simmpi import run_mpi
from repro.tcio import TCIO_RDONLY, TcioConfig, TcioFile
from repro.util.errors import TcioError
from tests.conftest import make_test_cluster

SEGMENT = 256
FILE_BYTES = 16 * SEGMENT
COUNTS = [4, 80]


def reference() -> bytes:
    return bytes((i * 131 + 7) % 251 for i in range(FILE_BYTES))


def file_offset(i: int, width: int) -> int:
    """Scattered over every segment; some reads straddle a boundary."""
    return (i * 389 + 3) % (FILE_BYTES - width)


def run_reads(program):
    """Run *program(fh)* on rank 0 of a two-rank job; return what it returns
    and the number of bases the log held when it fetched."""
    held = []

    def main(env):
        cfg = TcioConfig(segment_size=SEGMENT, segments_per_process=9)
        fh = yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg)
        out = None
        if env.rank == 0:
            out = yield from program(fh)
            held.append(len(fh.readlog.bases))
            yield from fh.fetch()
            out = out() if callable(out) else out
        yield from fh.close()
        return out

    data = reference()
    result = run_mpi(
        2, main, cluster=make_test_cluster(),
        pfs_init=lambda pfs: pfs.create("f").write_bytes(0, data),
    )
    assert result.aborted is None, result.aborted
    return result.returns[0], held[0]


@pytest.mark.parametrize("count", COUNTS)
def test_views_of_one_bytearray(count):
    def program(fh):
        buf = bytearray(8 * count)
        view = memoryview(buf)
        for i in range(count):
            yield from fh.read_at(file_offset(i, 8), view[8 * i : 8 * i + 8])
        return lambda: bytes(buf)

    got, bases = run_reads(program)
    data = reference()
    assert got == b"".join(data[file_offset(i, 8) : file_offset(i, 8) + 8] for i in range(count))
    assert bases == 1


@pytest.mark.parametrize("count", COUNTS)
def test_views_of_one_ndarray(count):
    def program(fh):
        arr = np.zeros(count, dtype=np.float64)
        view = memoryview(arr).cast("B")
        for i in range(count):
            yield from fh.read_at(file_offset(i, 8), view[8 * i : 8 * i + 8])
        return lambda: arr.tobytes()

    got, bases = run_reads(program)
    data = reference()
    assert got == b"".join(data[file_offset(i, 8) : file_offset(i, 8) + 8] for i in range(count))
    assert bases == 1


@pytest.mark.parametrize("count", COUNTS)
def test_ndarray_slices_passed_directly(count):
    def program(fh):
        ints = np.zeros(count, dtype=np.int32)
        doubles = np.zeros(count, dtype=np.float64)
        for i in range(count):
            yield from fh.read_at(file_offset(2 * i, 4), ints[i : i + 1])
            yield from fh.read_at(file_offset(2 * i + 1, 8), doubles[i : i + 1])
        return lambda: (ints.tobytes(), doubles.tobytes())

    (ints, doubles), bases = run_reads(program)
    data = reference()
    assert ints == b"".join(
        data[file_offset(2 * i, 4) : file_offset(2 * i, 4) + 4] for i in range(count)
    )
    assert doubles == b"".join(
        data[file_offset(2 * i + 1, 8) : file_offset(2 * i + 1, 8) + 8] for i in range(count)
    )
    assert bases == 2  # each slice lands through its root array's one view


@pytest.mark.parametrize("count", COUNTS)
def test_a_target_without_a_flat_owner_is_its_own_base(count):
    def program(fh):
        # a row of a Fortran-ordered array: strided, and its root is not
        # C-contiguous, so neither casts to a flat byte view; one element
        # of it is a contiguous 8-byte target all the same
        root = np.zeros((2, count), order="F")
        row = root[0]
        for i in range(count):
            yield from fh.read_at(file_offset(i, 8), memoryview(row)[i : i + 1])
        return lambda: b"".join(row[i : i + 1].tobytes() for i in range(count))

    got, bases = run_reads(program)
    data = reference()
    assert got == b"".join(data[file_offset(i, 8) : file_offset(i, 8) + 8] for i in range(count))
    assert bases == count


@pytest.mark.parametrize("count", COUNTS)
def test_overlapping_targets_the_later_read_wins(count):
    # All in one segment, so service order is recording order; no read
    # continues the one before it, so none merge
    width = 20

    def offset(i):
        return 5 * SEGMENT + (i * 37) % (SEGMENT - width)

    def at(i):  # where read i lands in buf: each overlaps its neighbours
        return 8 * i + 8 if i % 2 == 0 else 8 * i - 8

    def program(fh):
        buf = bytearray(8 * count + width + 8)
        # a second exporter of buf[8:]: read 0 lands through it, read 1
        # (at buf[0:]) through buf's own view, so the two bases alias
        tail = np.frombuffer(memoryview(buf)[8:], np.uint8)
        for i in range(count):
            if i % 2 == 0:
                dest = memoryview(tail)[at(i) - 8 : at(i) - 8 + width]
            else:
                dest = memoryview(buf)[at(i) : at(i) + width]
            yield from fh.read_at(offset(i), dest)
        return lambda: bytes(buf)

    got, bases = run_reads(program)
    data = reference()
    want = bytearray(8 * count + width + 8)
    for i in range(count):
        want[at(i) : at(i) + width] = data[offset(i) : offset(i) + width]
    assert got == bytes(want)
    assert bases == 2


@pytest.mark.parametrize(
    "target", [bytes(8), memoryview(bytearray(8)).toreadonly()], ids=["bytes", "readonly-view"]
)
def test_a_read_only_target_is_refused(target):
    def program(fh):
        with pytest.raises(TcioError, match="read-only"):
            yield from fh.read_at(0, target)
        return "refused"

    assert run_reads(program) == ("refused", 0)


def test_a_bytearray_with_a_pending_read_cannot_be_resized():
    def program(fh):
        buf = bytearray(16)
        yield from fh.read_at(100, memoryview(buf)[4:12])
        with pytest.raises(BufferError):
            buf.extend(b"xy")
        yield from fh.fetch()
        buf.extend(b"xy")  # the fetch let go of it
        return bytes(buf)

    got, _ = run_reads(program)
    assert got == bytes(4) + reference()[100:108] + bytes(4) + b"xy"
