"""``tcio_fetch`` on offset/length lists against the per-request fetch it
replaced.

The fetch used to walk every pending read several times in Python: after
grouping it by segment, ``(disp, length)`` tuples for the pull, ``base +
disp`` tuples for the Get, a bounds check, one ``bytes`` object and one
tuple per block at the target, an ``(offset - base, data)`` list back at
the origin and a ``data[:length]`` copy into the destination. Now
``Level2Buffer.pull_blocks``, ``Degrade.pull_blocks`` and
``Window.get_indexed`` take the grouped ``(disps, lens)`` lists and return
the requested bytes packed back to back, and the fetch copies them into
the destinations in one pass. The read log no longer holds each pending
read's destination view either: a read is four integers — its base
buffer, its offset there, its file offset and its length — and the fetch
lands each segment's bytes through the held base. That may only be
cheaper on the host, never different in simulated time: the same service
order, the same lock epochs, the same byte totals, the same engine
events. The old
bodies — the view-holding log, its fetch and the per-request path — are
kept here, verbatim apart from being free functions, as the oracle;
Hypothesis drives identical read programs through both and compares every
destination's bytes, the engine clock, the event count and the whole
metrics registry, exactly.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from contextlib import ExitStack
from typing import Optional
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, FaultSpec
from repro.sim.engine import active_process
from repro.simmpi import collectives, run_mpi
from repro.simmpi.rma import LOCK_SHARED, Window
from repro.tcio import TCIO_RDONLY, TcioConfig, TcioFile
from repro.tcio import file as tcio_file
from repro.tcio.degrade import Degrade
from repro.tcio.level2 import Level2Buffer
from repro.util.errors import RetryBudgetExceeded, RmaError
from tests.conftest import make_test_cluster

SEGMENT = 256
FILE_BYTES = 16 * SEGMENT
SHARED = 64  # bytes of the one buffer that "view" destinations slice


# ----------------------------------------------------------------------
# the oracle: the per-request fetch path
# ----------------------------------------------------------------------


class OracleReadLog:
    """The read log that held each pending read's destination view."""

    def __init__(self, segment_size):
        self.segment_size = segment_size
        self.dests = []
        self.offsets = array("q")
        self.lengths = array("q")
        self._lo = self._hi = 0

    @property
    def empty(self):
        return not self.dests

    def record(self, dest, file_offset, length):
        lo, hi = file_offset, file_offset + length
        if self.dests:
            if self._lo < lo:
                lo = self._lo
            if self._hi > hi:
                hi = self._hi
            if hi - lo > self.segment_size:
                return False
        self._lo, self._hi = lo, hi
        self.dests.append(dest)
        self.offsets.append(file_offset)
        self.lengths.append(length)
        return True

    def drain(self):
        out = self.dests, self.offsets, self.lengths
        self.dests, self.offsets, self.lengths = [], array("q"), array("q")
        self._lo = self._hi = 0
        return out


def oracle_fetch(self):
    self._check_open(reading=True)
    dests, offsets, lengths = self.readlog.drain()
    if not dests:
        return
    self.stats.inc("fetches")
    with self._tracer.span("tcio.fetch", requests=len(dests)):
        yield from self._fetch_pending(dests, offsets, lengths)


def oracle_fetch_pending(self, dests, offsets, lengths):
    by_segment = defaultdict(lambda: ([], [], []))
    seg_size = self.mapping.segment_size
    for dest, offset, length in zip(dests, offsets, lengths):
        gseg = offset // seg_size
        disp = offset - gseg * seg_size
        if disp + length <= seg_size:
            disps, takes, views = by_segment[gseg]
            disps.append(disp)
            takes.append(length)
            views.append(dest)
            continue
        covered = 0
        for gseg, disp, take in self.mapping.locate(offset, length):
            disps, takes, views = by_segment[gseg]
            disps.append(disp)
            takes.append(take)
            views.append(dest[covered : covered + take])
            covered += take
    rank = self.env.rank
    segs = sorted(by_segment)

    def service_key(g: int) -> tuple[int, int]:
        owned = 0 if self.mapping.owner_of_segment(g) == rank else 1
        return (owned, (g + rank) % max(1, len(segs)))

    order = sorted(segs, key=service_key)
    d = self.directory
    raw_by_seg: dict[int, bytes] = {}
    for gseg in order:
        if (
            self.mapping.owner_of_segment(gseg) == rank
            and gseg not in d.loaded
            and gseg not in d.dirty
            and gseg not in d.loading
        ):
            raw = yield from self._ensure_segment(gseg)
            if raw is not None:
                raw_by_seg[gseg] = raw
    for gseg in order:
        yield from self._fetch_segment(gseg, by_segment[gseg], raw_by_seg.get(gseg))


def oracle_fetch_segment(self, gseg, requests, raw: Optional[bytes] = None):
    disps, lengths, dests = requests
    if raw is None:
        raw = yield from self._ensure_segment(gseg)
    if raw is not None:
        for disp, length, dest in zip(disps, lengths, dests):
            dest[:] = raw[disp : disp + length]
    else:
        blocks = yield from self._pull(gseg, list(zip(disps, lengths)))
        for length, dest, (_got_disp, data) in zip(lengths, dests, blocks):
            dest[:] = data[:length]
    self._charge_memcpy(sum(lengths))


def oracle_level2_pull_blocks(self, global_segment, ranges):
    # (The combine_indexed=False branch called a Window.get that did not
    # exist; it is left out.)
    owner = self.mapping.owner_of_segment(global_segment)
    base = self._slot_base(global_segment)
    if owner == self.rank:
        slot = self.local_slot(global_segment)
        out = [(disp, slot[disp : disp + ln].tobytes()) for disp, ln in ranges]
        self.stats.inc("local_gets", len(ranges))
        return out
    nbytes = sum(ln for _, ln in ranges)
    with self.tracer.span("tcio.pull", segment=global_segment, target=owner, bytes=nbytes):

        def attempt(_attempt: int):
            yield from self.window.lock(owner, LOCK_SHARED)
            try:
                return (
                    yield from self.window.get_indexed(
                        [(base + disp, ln) for disp, ln in ranges], owner
                    )
                )
            finally:
                self.window.unlock(owner)

        got = yield from self._retry_rma(f"tcio.pull(seg={global_segment})", attempt)
    self.stats.inc("get_blocks", len(ranges))
    self.stats.inc("fetched_bytes", nbytes)
    return [(off - base, data) for off, data in got]


def oracle_degrade_pull_blocks(self, gseg, ranges):
    fh = self.fh
    direct = fh.directory.direct
    if gseg not in direct:
        try:
            return (yield from fh.level2.pull_blocks(gseg, ranges))
        except RetryBudgetExceeded:
            direct.add(gseg)
            fh._plan.note_fallback("tcio.fetch", segment=gseg, rank=fh.env.rank)
    seg_start = fh.mapping.segment_extent(gseg).start
    nbytes = sum(length for _, length in ranges)
    blocks = []
    with fh._tracer.span("tcio.fallback_fetch", segment=gseg, bytes=nbytes, rank=fh.env.rank):
        for disp, length in ranges:
            data = yield from fh._pfs_read("tcio.fallback_fetch", seg_start + disp, length)
            blocks.append((disp, data))
    fh.stats.inc("fetched_bytes", nbytes)
    return blocks


def oracle_get_indexed(self, blocks, target):
    epoch = self._require_epoch(target)
    world = self.world
    proc = active_process()
    target_w = self.comm.world_rank(target)
    remote = world.window_buffer(self.win_id, target_w)
    total = 0
    for off, ln in blocks:
        if ln < 0 or off < 0 or off + ln > len(remote):
            raise RmaError(f"get outside window: [{off},{off + ln}) of {len(remote)}")
        total += ln
    self._maybe_fail("get", target_w)
    t_req = world.fabric.control_delay(self.my_world_rank, target_w, rma=True)
    result: list[tuple[int, bytes]] = []

    def serve() -> None:
        for off, ln in blocks:
            result.append((off, bytes(remote[off : off + ln])))
        t_back = world.fabric.delivery_time(target_w, self.my_world_rank, total, rma=True)
        world.engine.schedule_at(t_back, lambda: proc.wake())

    world.engine.schedule_at(t_req, serve)
    yield from proc.block(f"rma.get(target={target}, bytes={total})")
    epoch.last_completion = max(epoch.last_completion, world.engine.now)
    if world.trace is not None:
        self._c_get.add(total)
        self._c_get_blocks.add(len(blocks))
    return result


ORACLE = (
    (tcio_file, "ReadLog", OracleReadLog),
    (TcioFile, "fetch", oracle_fetch),
    (TcioFile, "_fetch_pending", oracle_fetch_pending),
    (TcioFile, "_fetch_segment", oracle_fetch_segment),
    (Level2Buffer, "pull_blocks", oracle_level2_pull_blocks),
    (Degrade, "pull_blocks", oracle_degrade_pull_blocks),
    (Window, "get_indexed", oracle_get_indexed),
)


# ----------------------------------------------------------------------
# read programs
# ----------------------------------------------------------------------


def reference() -> bytes:
    return bytes((i * 131 + 7) % 251 for i in range(FILE_BYTES))


_offsets = st.one_of(
    st.integers(0, FILE_BYTES - 1),
    # crowded into the first segments: reads that share a segment
    st.integers(0, 2 * SEGMENT),
    # just before, at or after a segment boundary: reads that straddle it
    st.builds(lambda seg, d: seg * SEGMENT + d, st.integers(1, 15), st.integers(-9, 8)),
)


@st.composite
def _read(draw):
    offset = draw(_offsets)
    longest = min(2 * SEGMENT, FILE_BYTES - offset)
    if draw(st.booleans()):
        # into a view of the rank's one shared buffer: the views of
        # different reads overlap, so the order of the copies shows
        length = draw(st.integers(1, min(SHARED - 30, longest)))
        return offset, length, draw(st.sampled_from([0, 5, 16, 30]))
    return offset, draw(st.integers(1, longest)), None  # a private bytearray


@st.composite
def programs(draw):
    nranks = draw(st.integers(2, 8))
    plans = []
    for _ in range(nranks):
        reads = draw(st.lists(_read(), min_size=1, max_size=10))
        steps = reads + draw(st.lists(st.sampled_from(reads), max_size=3))  # repeated reads
        for at in sorted(draw(st.sets(st.integers(0, len(steps)), max_size=3)), reverse=True):
            steps.insert(at, None)  # an explicit fetch
        plans.append(steps)
    return dict(
        nranks=nranks,
        plans=plans,
        window=draw(st.sampled_from([1, 2, 16])),
        faults=draw(st.sampled_from([None, "unreachable", "flaky"])),
        seed=draw(st.integers(0, 2**16)),
    )


def _main(spec):
    def main(env):
        cfg = TcioConfig(
            segment_size=SEGMENT,
            segments_per_process=-(-16 // env.size) + 1,
            read_window_segments=spec["window"],
        )
        fh = yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg)
        shared = bytearray(SHARED)
        private = []
        for step in spec["plans"][env.rank]:
            if step is None:
                yield from fh.fetch()
                continue
            offset, length, view_at = step
            if view_at is None:
                dest = bytearray(length)
                private.append(dest)
            else:
                dest = memoryview(shared)[view_at : view_at + length]
            yield from fh.read_at(offset, dest)
        yield from fh.close()
        return [bytes(b) for b in private], bytes(shared)

    return main


def _run(spec, oracle: bool):
    data = reference()
    faults = None
    if spec["faults"] == "unreachable":
        # rank 1's segments degrade: pulls from it exhaust the retry budget
        faults = FaultPlan(FaultSpec(unreachable_ranks=(1,)), spec["seed"])
    elif spec["faults"] == "flaky":
        faults = FaultPlan(FaultSpec(rma_fail_rate=0.3), spec["seed"])
    with ExitStack() as stack:
        if oracle:
            for cls, name, body in ORACLE:
                stack.enter_context(patch.object(cls, name, body))
        return run_mpi(
            spec["nranks"],
            _main(spec),
            cluster=make_test_cluster(),
            pfs_init=lambda pfs: pfs.create("f").write_bytes(0, data),
            faults=faults,
        )


def _outcome(result):
    assert result.aborted is None, result.aborted
    return (
        result.returns,
        result.elapsed,
        result.world.engine.events,
        result.trace.registry.flat(),
    )


@given(programs())
@settings(max_examples=80, deadline=None)
def test_fetch_matches_the_per_request_path(spec):
    want = _outcome(_run(spec, oracle=True))
    got = _outcome(_run(spec, oracle=False))
    assert got == want


def test_programs_cover_what_they_claim():
    """One fixed program per claim, each checked against the file bytes."""
    data = reference()
    spec = dict(
        nranks=4,
        plans=[
            # straddles segments 0|1 twice (repeated), then overlapping views
            [(SEGMENT - 5, 10, None), (SEGMENT - 5, 10, None), (3, 40, 0), (20, 40, 10)],
            [(SEGMENT * 3 + 1, SEGMENT + 7, None), None, (0, 8, None)],
            [(SEGMENT * 5, 4, None)],
            [(FILE_BYTES - 3, 3, 30), (7, 64, 0)],
        ],
        window=2,
        faults="unreachable",
        seed=3,
    )
    result = _run(spec, oracle=False)
    assert result.aborted is None
    assert result.returns[0][0] == [data[SEGMENT - 5 : SEGMENT + 5]] * 2
    shared = bytearray(SHARED)
    shared[0:40] = data[3:43]
    shared[10:50] = data[20:60]  # the later read wins where views overlap
    assert result.returns[0][1] == bytes(shared)
    assert result.returns[1][0] == [data[SEGMENT * 3 + 1 : SEGMENT * 4 + 8], data[0:8]]
    assert result.returns[3][1] == data[7:71]
    counters = result.trace.registry.flat()["counters"]
    assert any("fallback" in name for name in counters), "no segment degraded"
    assert _outcome(result) == _outcome(_run(spec, oracle=True))


@pytest.mark.parametrize("combine", [True, False])
def test_per_block_gets_serve_the_same_bytes(combine):
    """The ``combine_indexed=False`` ablation pulls with one Get per block."""
    data = reference()

    def main(env):
        cfg = TcioConfig(
            segment_size=SEGMENT, segments_per_process=9, combine_indexed=combine
        )
        fh = yield from TcioFile.open(env, "f", TCIO_RDONLY, cfg)
        bufs = [bytearray(5) for _ in range(4)]
        # segment 1 belongs to rank 1, which loads it first; rank 0 then
        # pulls its four blocks from rank 1's slot
        for rank in (1, 0):
            if env.rank == rank:
                for i, buf in enumerate(bufs):
                    yield from fh.read_at(SEGMENT + 30 * i, buf)
                yield from fh.fetch()
            yield from collectives.barrier(env.comm)
        yield from fh.close()
        return [bytes(b) for b in bufs]

    result = run_mpi(
        2, main, cluster=make_test_cluster(),
        pfs_init=lambda pfs: pfs.create("f").write_bytes(0, data),
    )
    assert result.aborted is None, result.aborted
    want = [data[SEGMENT + 30 * i : SEGMENT + 30 * i + 5] for i in range(4)]
    assert result.returns == [want, want]
    gets = result.trace.registry.flat()["counters"]["rma.get"]
    assert gets["count"] == (1 if combine else 4), gets
