"""The array planner against the scalar loops it replaced, and a wire pin.

``repro.mpiio`` plans a collective access whole — flattened typemap, view
mapping, file-domain split, round window — as ``int64`` arrays. The
per-piece loops it replaced live on *here*, as the oracle: every kernel
must equal them piece for piece, in stream order, on Python ``int``s.

The second half pins the wire. The simulated clock is the product, and
the clock reads the pickled size of every exchange message; the golden
digests, byte totals and message counts below were recorded at the parent
commit (the scalar planner) with this same recorder.
"""

from __future__ import annotations

import bisect
import hashlib
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpiio import IoHints, MODE_CREATE, MODE_RDWR, MpiFile, twophase
from repro.mpiio.fileview import FileView
from repro.mpiio.twophase import FileDomains
from repro.simmpi.comm import wire_size
from repro.simmpi.datatypes import (
    BYTE, DOUBLE, INT, SHORT, Contiguous, Indexed, Primitive, Subarray, Vector,
)
from repro.topo import coalesce_runs
from repro.util.intervals import Extent
from tests.conftest import make_test_cluster, run_small


# ----------------------------------------------------------------------
# the oracle: the scalar loops as they stood before the array planner
# ----------------------------------------------------------------------


def oracle_segments(t) -> list[tuple[int, int]]:
    """Flattened, merged typemap by per-element Python loops."""
    if isinstance(t, Primitive):
        raw = [(0, t.size)]
    elif isinstance(t, Contiguous):
        raw = _oracle_block(t.base, t.count, 0)
    elif isinstance(t, Vector):
        raw = []
        for i in range(t.count):
            raw += _oracle_block(t.base, t.blocklength, i * t.stride * t.base.extent)
    elif isinstance(t, Indexed):
        raw = []
        for b, d in zip(t.blocklengths, t.displacements):
            raw += _oracle_block(t.base, b, d * t.base.extent)
    else:
        assert isinstance(t, Subarray)
        raw = []
        if all(t.subsizes):
            ndim = len(t.sizes)
            strides = [t.base.extent] * ndim
            for d in range(ndim - 2, -1, -1):
                strides[d] = strides[d + 1] * t.sizes[d + 1]

            def emit(dim: int, offset: int) -> None:
                if dim == ndim - 1:
                    raw.extend(_oracle_block(
                        t.base, t.subsizes[dim], offset + t.starts[dim] * strides[dim]
                    ))
                    return
                for i in range(t.subsizes[dim]):
                    emit(dim + 1, offset + (t.starts[dim] + i) * strides[dim])

            emit(0, 0)
    merged: list[tuple[int, int]] = []
    for off, length in raw:
        if length == 0:
            continue
        if merged and merged[-1][0] + merged[-1][1] == off:
            merged[-1] = (merged[-1][0], merged[-1][1] + length)
        else:
            merged.append((off, length))
    return merged


def _oracle_block(base, count: int, shift: int) -> list[tuple[int, int]]:
    out = []
    for i in range(count):
        out += [(off + shift + i * base.extent, ln) for off, ln in oracle_segments(base)]
    return out


def oracle_map_pieces(displacement, filetype, stream_pos, nbytes):
    """``FileView.map_pieces`` as one loop step per touched segment."""
    segments = oracle_segments(filetype)
    cum = [0]
    for _, length in segments:
        cum.append(cum[-1] + length)
    out: list[tuple[Extent, int]] = []
    remaining, pos = nbytes, stream_pos
    while remaining > 0:
        tile, within = divmod(pos, cum[-1])
        seg_idx = bisect.bisect_right(cum, within) - 1
        seg_off, seg_len = segments[seg_idx]
        into_seg = within - cum[seg_idx]
        take = min(remaining, seg_len - into_seg)
        file_start = displacement + tile * filetype.extent + seg_off + into_seg
        ext = Extent(file_start, file_start + take)
        if out and out[-1][0].stop == ext.start:
            prev_ext, prev_mem = out[-1]
            out[-1] = (Extent(prev_ext.start, ext.stop), prev_mem)
        else:
            out.append((ext, pos - stream_pos))
        pos += take
        remaining -= take
    return out


def oracle_bounds(gmin, gmax, naggs, align):
    base, rem = divmod(gmax - gmin, naggs)
    bounds = [gmin]
    for i in range(naggs):
        bounds.append(bounds[-1] + base + (1 if i < rem else 0))
    if align > 1:
        for i in range(1, naggs):
            snapped = -(-(bounds[i] - gmin) // align) * align + gmin
            bounds[i] = min(max(snapped, bounds[i - 1]), gmax)
        bounds[naggs] = gmax
    return bounds


def oracle_domain_pieces(pieces, bounds):
    """``FileDomains.split`` over every piece: (domain, extent, mem offset)."""
    naggs = len(bounds) - 1
    out = []
    for ext, mem_off in pieces:
        pos = ext.start
        while pos < ext.stop:
            agg = min(bisect.bisect_right(bounds, pos) - 1, naggs - 1)
            stop = min(ext.stop, bounds[agg + 1])
            out.append((agg, Extent(pos, stop), mem_off + (pos - ext.start)))
            pos = stop
    return out


def oracle_send_lists(domain_pieces, bounds, rnd, span, data):
    """One round of the write loop: clip to the window, slice, group."""
    send_lists: dict[int, list[tuple[int, bytes]]] = {}
    for di, piece, mem_off in domain_pieces:
        lo = min(bounds[di + 1], bounds[di] + rnd * span)
        start = max(piece.start, lo)
        stop = min(piece.stop, bounds[di + 1], lo + span)
        if stop <= start:
            continue
        mem = mem_off + start - piece.start
        send_lists.setdefault(di, []).append((start, data[mem : mem + stop - start]))
    return send_lists


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

_small = st.integers(0, 4)


@st.composite
def _subarrays(draw, base):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    subsizes = [draw(st.integers(0, n)) for n in sizes]
    starts = [draw(st.integers(0, n - sub)) for n, sub in zip(sizes, subsizes)]
    return Subarray(sizes, subsizes, starts, draw(base))


@st.composite
def _indexed(draw, base):
    rows = draw(st.lists(st.tuples(_small, st.integers(0, 9)), max_size=4))
    return Indexed([b for b, _ in rows], [d for _, d in rows], draw(base))


def _grow(base):
    return st.one_of(
        st.builds(Contiguous, _small, base),
        st.builds(Vector, _small, _small, st.integers(0, 6), base),
        _indexed(base),
        _subarrays(base),
    )


datatypes = st.recursive(st.sampled_from([BYTE, SHORT, INT, DOUBLE]), _grow, max_leaves=4)
filetypes = datatypes.filter(lambda t: t.size > 0)


def _is_ints(values) -> bool:
    return all(type(v) is int for v in values)


@st.composite
def accesses(draw):
    """A view over a random filetype and a request into its stream."""
    filetype = draw(filetypes)
    displacement = draw(st.integers(0, 50))
    stream_pos = draw(st.integers(0, 3 * filetype.size))  # mid-segment, later tiles
    nbytes = draw(st.integers(0, 4 * filetype.size))  # empty .. several tiles
    return filetype, displacement, stream_pos, nbytes


@st.composite
def split_cases(draw):
    """Pieces of an access plus file domains that cover them."""
    filetype, displacement, stream_pos, nbytes = draw(accesses().filter(lambda a: a[3] > 0))
    pieces = oracle_map_pieces(displacement, filetype, stream_pos, nbytes)
    lo = min(e.start for e, _ in pieces) - draw(st.integers(0, 20))
    hi = max(e.stop for e, _ in pieces) + draw(st.integers(0, 20))
    naggs = draw(st.integers(1, 12))  # 1 = cb_nodes far below size, 12 = tiny domains
    align = draw(st.sampled_from([1, 1, 4, 16, 64]))  # cb_align_stripes
    return filetype, displacement, stream_pos, nbytes, pieces, max(lo, 0), hi, naggs, align


# ----------------------------------------------------------------------
# the three kernels against the oracle
# ----------------------------------------------------------------------


class TestTypemap:
    @given(datatypes)
    @settings(max_examples=300, deadline=None)
    def test_array_typemap_equals_the_loops(self, t):
        assert t.typemap.dtype == np.int64 and t.typemap.shape[1:] == (2,)
        assert [tuple(seg) for seg in t.typemap.tolist()] == oracle_segments(t)

    def test_nested_contiguous_merges_to_one_run(self):
        t = Contiguous(3, Contiguous(4, Contiguous(2, INT)))
        assert t.typemap.tolist() == [[0, 96]] and t.is_contiguous

    def test_typemap_is_read_only(self):
        with pytest.raises(ValueError):
            INT.vector(3, 1, 2).typemap[0, 0] = 7


class TestViewMapping:
    @given(accesses())
    @settings(max_examples=400, deadline=None)
    def test_map_arrays_equals_the_loop(self, access):
        filetype, displacement, stream_pos, nbytes = access
        view = FileView(displacement, BYTE, filetype)
        expected = oracle_map_pieces(displacement, filetype, stream_pos, nbytes)
        starts, lengths, mems = view.map_arrays(stream_pos, nbytes)
        assert starts.dtype == lengths.dtype == mems.dtype == np.int64
        got = list(zip(starts.tolist(), lengths.tolist(), mems.tolist()))
        assert got == [(e.start, e.length, m) for e, m in expected]
        assert view.map_pieces(stream_pos, nbytes) == expected
        assert view.map_extents(stream_pos, nbytes) == [e for e, _ in expected]
        for ext, mem in view.map_pieces(stream_pos, nbytes):
            assert _is_ints((ext.start, ext.stop, mem))

    @given(st.integers(0, 1 << 40), st.integers(0, 1 << 20), st.integers(0, 1 << 30))
    def test_contiguous_view_is_one_piece(self, displacement, nbytes, stream_pos):
        view = FileView(displacement, INT, Contiguous(5, INT))
        expected = [(Extent(displacement + stream_pos, displacement + stream_pos + nbytes), 0)]
        assert view.map_pieces(stream_pos, nbytes) == (expected if nbytes else [])

    def test_request_inside_one_segment_of_a_later_tile(self):
        filetype = Contiguous(12, BYTE).vector(4, 1, 3)  # 12 of every 36 bytes
        view = FileView(7, BYTE, filetype)
        # tile 2, segment 1, bytes 3..9 of it
        pos = 2 * 48 + 12 + 3
        assert view.map_pieces(pos, 6) == [(Extent(7 + 2 * 120 + 36 + 3, 7 + 2 * 120 + 36 + 9), 0)]
        assert view.map_pieces(pos, 6) == oracle_map_pieces(7, filetype, pos, 6)

    def test_segment_filling_request_stops_at_the_segment_end(self):
        view = FileView(0, BYTE, Contiguous(4, BYTE).vector(3, 1, 2))
        assert view.map_pieces(4, 4) == [(Extent(8, 12), 0)]
        assert view.map_pieces(4, 5) == [(Extent(8, 12), 0), (Extent(16, 17), 4)]


class TestDomainSplit:
    @given(split_cases())
    @settings(max_examples=400, deadline=None)
    def test_split_arrays_equals_the_loop(self, case):
        filetype, displacement, stream_pos, nbytes, pieces, gmin, gmax, naggs, align = case
        domains = FileDomains(gmin, gmax, naggs, align)
        bounds = oracle_bounds(gmin, gmax, naggs, align)
        assert domains.bounds.tolist() == bounds
        view = FileView(displacement, BYTE, filetype)
        owners, starts, lengths, mems = domains.split_arrays(
            *view.map_arrays(stream_pos, nbytes)
        )
        got = list(zip(owners.tolist(), starts.tolist(), lengths.tolist(), mems.tolist()))
        expected = oracle_domain_pieces(pieces, bounds)
        assert got == [(di, e.start, e.length, mem) for di, e, mem in expected]

    @given(split_cases(), st.integers(1, 40), st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_round_window_packs_what_the_loop_packed(self, case, span, data):
        filetype, displacement, stream_pos, nbytes, pieces, gmin, gmax, naggs, align = case
        domains = FileDomains(gmin, gmax, naggs, align)
        bounds = domains.bounds.tolist()
        payload = bytes(i % 251 for i in range(nbytes))
        view = FileView(displacement, BYTE, filetype)
        split = domains.split_arrays(*view.map_arrays(stream_pos, nbytes))
        domain_pieces = oracle_domain_pieces(pieces, bounds)
        longest = max(b - a for a, b in zip(bounds, bounds[1:]))
        sent = 0
        for rnd in range(-(-longest // span)):
            sends = twophase._pack_sends(split, *domains.windows(rnd, span), payload)
            send_lists = {di: twophase._wire_pairs(*blocks) for di, blocks in sends.items()}
            send_bytes = {di: len(blocks[2]) for di, blocks in sends.items()}
            expected = oracle_send_lists(domain_pieces, bounds, rnd, span, payload)
            # the dict's insertion order is the order of the isends
            assert list(send_lists.items()) == list(expected.items())
            assert send_bytes == {
                di: sum(len(b) for _, b in lst) for di, lst in expected.items()
            }
            assert _is_ints(send_bytes.values())
            assert _is_ints(off for lst in send_lists.values() for off, _ in lst)
            sent += sum(send_bytes.values())
        assert sent == nbytes  # the rounds partition the access

    def test_piece_straddling_several_boundaries_and_an_empty_domain(self):
        domains = FileDomains(0, 64, 4, align=32)  # domains 1 and 3 are empty
        assert domains.bounds.tolist() == [0, 32, 32, 64, 64]
        owners, starts, lengths, mems = domains.split_arrays(
            np.array([10, 60]), np.array([50, 4]), np.array([0, 50])
        )
        assert list(zip(owners.tolist(), starts.tolist(), lengths.tolist(), mems.tolist())) == [
            (0, 10, 22, 0), (2, 32, 28, 22), (2, 60, 4, 50),
        ]
        many = FileDomains(0, 100, 10)
        assert many.split(Extent(5, 95)) == [
            (i, Extent(max(5, 10 * i), min(95, 10 * i + 10))) for i in range(10)
        ]

    def test_descending_access_keeps_first_appearance_order(self):
        """A filetype that walks the file backwards visits domains in
        descending order; the send dict must list them as met."""
        filetype = Indexed([2, 2, 2, 2], [12, 8, 4, 0], BYTE)
        view = FileView(0, BYTE, filetype)
        domains = FileDomains(0, 14, 2)
        split = domains.split_arrays(*view.map_arrays(0, 8))
        sends = twophase._pack_sends(split, *domains.windows(0, 14), bytes(range(8)))
        send_lists = {di: twophase._wire_pairs(*blocks) for di, blocks in sends.items()}
        assert list(send_lists.items()) == [
            (1, [(12, b"\x00\x01"), (8, b"\x02\x03")]),
            (0, [(4, b"\x04\x05"), (0, b"\x06\x07")]),
        ]


# ----------------------------------------------------------------------
# the wire pin
# ----------------------------------------------------------------------


@st.composite
def one_byte_cases(draw):
    """``split_cases`` of 1-byte pieces: a byte-strided view whose pieces
    touch nothing, over domains small enough that some pieces straddle
    none and longer requests cross many."""
    count, stride = draw(st.integers(1, 40)), draw(st.integers(2, 5))
    filetype = Vector(count, 1, stride, BYTE)
    stream_pos, nbytes = draw(st.integers(0, count)), draw(st.integers(1, 2 * count))
    pieces = oracle_map_pieces(0, filetype, stream_pos, nbytes)
    hi = max(e.stop for e, _ in pieces)
    return filetype, 0, stream_pos, nbytes, pieces, 0, hi, draw(st.integers(1, 12)), 1


class TestWireSize:
    """Messages travel as arrays; the wire still carries the pairs list.

    The payload bytes come from a three-letter alphabet, so 1-byte blocks
    repeat inside a message: the parent's list shared those (CPython has
    one object per single byte) and pickle wrote each repeat as a
    reference, which the charged size must reproduce.
    """

    @given(st.one_of(split_cases(), one_byte_cases()), st.integers(1, 40), st.data())
    @settings(max_examples=300, deadline=None)
    def test_array_form_is_charged_the_pickle_of_its_pairs(self, case, span, data):
        filetype, displacement, stream_pos, nbytes, pieces, gmin, gmax, naggs, align = case
        payload = bytes(data.draw(st.lists(st.sampled_from(b"abc"), min_size=nbytes, max_size=nbytes)))
        domains = FileDomains(gmin, gmax, naggs, align)
        bounds = domains.bounds.tolist()
        view = FileView(displacement, BYTE, filetype)
        split = domains.split_arrays(*view.map_arrays(stream_pos, nbytes))
        domain_pieces = oracle_domain_pieces(pieces, bounds)
        longest = max(b - a for a, b in zip(bounds, bounds[1:]))
        for rnd in range(-(-longest // span)):
            sends = twophase._pack_sends(split, *domains.windows(rnd, span), payload)
            expected = oracle_send_lists(domain_pieces, bounds, rnd, span, payload)
            assert list(sends) == list(expected)
            for di, pairs in expected.items():
                offsets, lengths, packed = sends[di]
                assert offsets.dtype == lengths.dtype == np.int64
                assert packed == b"".join(block for _, block in pairs)
                assert twophase._wire(*sends[di]) == wire_size(pairs)
                asked = [(off, len(block)) for off, block in pairs]
                assert twophase._request_pairs(offsets, lengths) == asked

    def test_a_coalesced_message_is_charged_as_fresh_blocks(self):
        """The node leader's merged blocks were new ``bytes`` objects, so a
        repeated 1-byte block is written out each time, not referenced."""
        merged = coalesce_runs(np.array([0, 2, 4, 5]), np.array([1, 1, 1, 2]), b"aaabc")
        fresh = [(0, bytes(bytearray(b"a"))), (2, bytes(bytearray(b"a"))), (4, b"abc")]
        shared = wire_size(twophase._wire_pairs(*merged))
        assert twophase._merged_wire(*merged) == wire_size(fresh) > shared


NRANKS, BLK, NB = 8, 24, 6

WIRE_MODES = {
    "flat": IoHints(cb_align_stripes=False),
    "node": IoHints(cb_align_stripes=False, cb_aggregation="node"),
    "rounds": IoHints(cb_align_stripes=False, cb_rounds_buffer=40, cb_nodes=3),
}

#: mode -> (priced messages, pickled bytes, SHA-256 of the pickles in
#: call order, mpi.send count, mpi.send bytes), recorded at the scalar
#: planner's commit, when the messages were priced by ``pack_object``.
WIRE_GOLDEN = {
    "flat": (
        84, 3930, "03363f9d97e9efa7fbb1d7ca43561e99415634740fa18dc4636b0a1bfc66c8e7",
        244, 6955,
    ),
    "node": (
        104, 4385, "b53e7511439f4b80037ef02cc5ed99f6aeeae230bdc5b5168b69df4343136c13",
        152, 6145,
    ),
    "rounds": (
        79, 4001, "1df89900a107ccf71b46b4c31401500c51c1d0088b1ba0038aca390fa693f95f",
        743, 9357,
    ),
}


def _only_int_and_bytes(obj) -> bool:
    if type(obj) in (list, tuple):
        return all(_only_int_and_bytes(item) for item in obj)
    return type(obj) in (int, bytes)


#: The pricing helpers whose messages the golden pins. The flat read
#: path's request sizes (``_flat_read_edges``) were never recorded.
_PRICED_BY = {"_wire", "_merged_wire", "_ask_wire"}


def _record_wire(monkeypatch, hints: IoHints):
    objects, digest, nbytes = [], hashlib.sha256(), 0

    def recording(obj):
        nonlocal nbytes
        size = wire_size(obj)
        if sys._getframe(1).f_code.co_name in _PRICED_BY:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            assert len(payload) == size
            objects.append(obj)
            digest.update(payload)
            nbytes += size
        return size

    monkeypatch.setattr(twophase, "wire_size", recording)

    def main(env):
        etype = Contiguous(BLK, BYTE)
        fh = yield from MpiFile.open(env, "f", MODE_RDWR | MODE_CREATE, hints)
        yield from fh.set_view(env.rank * BLK, etype, etype.vector(NB, 1, NRANKS))
        yield from fh.write_all(bytes((env.rank * 31 + i) % 256 for i in range(NB * BLK)))
        fh.seek(0)
        back = yield from fh.read_all(NB, etype)
        yield from fh.close()
        return back

    res = run_small(NRANKS, main, cluster=make_test_cluster(nodes=4, cores_per_node=2))
    for rank, back in enumerate(res.returns):
        assert back == bytes((rank * 31 + i) % 256 for i in range(NB * BLK))
    sends = res.trace.get("mpi.send")
    return objects, (len(objects), nbytes, digest.hexdigest(), sends.count, int(sends.total))


@pytest.mark.parametrize("mode", sorted(WIRE_MODES))
def test_exchange_payloads_are_byte_identical_to_the_scalar_planner(monkeypatch, mode):
    objects, observed = _record_wire(monkeypatch, WIRE_MODES[mode])
    assert objects and all(_only_int_and_bytes(obj) for obj in objects)
    assert observed == WIRE_GOLDEN[mode]
