"""Graceful degradation under an armed fault plan: when a segment owner's
RMA target stays unreachable past the retry budget, this rank's data goes
to (or comes from) the file system directly — the collective never wedges
on a dead peer — and whatever that puts at risk is counted and reported.
Owns the unreachable-owner set; exists only when ``world.faults`` is set
(without a plan no transfer can exhaust a retry budget).
"""

from __future__ import annotations

import warnings
from itertools import accumulate
from typing import Sequence

from repro.util.errors import RetryBudgetExceeded


class Degrade:
    """One handle's independent-I/O fallback."""

    def __init__(self, fh):
        self.fh = fh
        #: Segment owners that stayed unreachable past the retry budget;
        #: later flushes to them skip straight to the independent-write
        #: fallback instead of burning retries again.
        self.unreachable: set[int] = set()

    def deposit(self, gseg: int, disps: Sequence[int], lens: Sequence[int], payload: bytes):
        """``level2.push_blocks``, or the fallback when the owner is (or
        turns out to be) unreachable (coroutine)."""
        fh = self.fh
        owner = fh.mapping.owner_of_segment(gseg)
        if owner not in self.unreachable:
            try:
                return (yield from fh.level2.push_blocks(gseg, disps, lens, payload))
            except RetryBudgetExceeded:
                self.unreachable.add(owner)
        yield from self.fallback_flush(gseg, disps, lens, payload)

    def fallback_flush(self, gseg: int, disps: Sequence[int], lens: Sequence[int],
                       payload: bytes):
        """Write one drained level-1 buffer straight to the PFS (coroutine).

        The written byte ranges are published in the shared directory so
        the segment owner's whole-segment writeback at close skips them
        (otherwise it would overwrite these bytes with slot zeros).
        """
        fh = self.fh
        seg_start = fh.mapping.segment_extent(gseg).start
        ranges = fh.directory.fallback_ranges.setdefault(gseg, [])
        nbytes = len(payload)
        self._warn_data_at_risk(gseg, disps, lens)
        with fh._tracer.span("tcio.fallback_flush", segment=gseg, bytes=nbytes, rank=fh.env.rank):
            for disp, length, end in zip(disps, lens, accumulate(lens)):
                piece = payload[end - length : end]
                yield from fh._pfs_write("tcio.fallback_flush", seg_start + disp, piece)
                ranges.append((disp, disp + length))
        fh._plan.note_fallback("tcio.flush", segment=gseg, rank=fh.env.rank)
        fh.stats.inc("flushed_bytes", nbytes)

    def _warn_data_at_risk(self, gseg: int, disps: Sequence[int], lens: Sequence[int]) -> None:
        """Detect the silent-loss hazard of degraded (fallback) flushes.

        The ranges this fallback writes directly become skip ranges for
        the owner's whole-segment writeback — including any bytes *other*
        ranks already deposited into the (unreachable) owner's slot there.
        Those deposits would silently never reach the file; count and warn
        so the loss is at least detected and attributable.
        """
        fh = self.fh
        at_risk = 0
        victims: set[int] = set()
        rows = fh.directory.deposited.get(gseg, ())
        for disp, length, src in zip(rows[0::3], rows[1::3], rows[2::3]):
            if src == fh.env.rank:
                continue
            for bdisp, blen in zip(disps, lens):
                lo, hi = max(disp, bdisp), min(disp + length, bdisp + blen)
                if hi > lo:
                    at_risk += hi - lo
                    victims.add(src)
        if at_risk:
            fh._trace.count("faults.data_at_risk", at_risk)
            # On a shared PFS the alarm must say WHOSE data is at risk:
            # several tenants' fallbacks can fire in one run and an
            # unattributed warning is unactionable.
            job = fh.env.world.job
            jtag = f"job {job}: " if job else ""
            warnings.warn(
                f"{jtag}tcio fallback flush of segment {gseg} overlaps "
                f"{at_risk} bytes deposited by rank(s) {sorted(victims)} "
                "into the unreachable owner's level-2 slot; those deposits "
                "will not be written back",
                RuntimeWarning, stacklevel=3,
            )
            detail = dict(segment=gseg, bytes=at_risk, rank=fh.env.rank)
            if job is not None:
                detail["job"] = job
            fh._plan.record("tcio.data_at_risk", **detail)

    def pull_blocks(self, gseg: int, disps: Sequence[int], lens: Sequence[int]):
        """``level2.pull_blocks``, or the same ranges read from the PFS
        when the segment is degraded (coroutine)."""
        fh = self.fh
        direct = fh.directory.direct
        if gseg not in direct:
            try:
                return (yield from fh.level2.pull_blocks(gseg, disps, lens))
            except RetryBudgetExceeded:
                direct.add(gseg)
                fh._plan.note_fallback("tcio.fetch", segment=gseg, rank=fh.env.rank)
        # Degraded segment: its owner was unreachable, nothing is cached
        # in level 2 — read straight from the file system.
        seg_start = fh.mapping.segment_extent(gseg).start
        nbytes = sum(lens)
        parts = []
        with fh._tracer.span("tcio.fallback_fetch", segment=gseg, bytes=nbytes, rank=fh.env.rank):
            for disp, length in zip(disps, lens):
                data = yield from fh._pfs_read("tcio.fallback_fetch", seg_start + disp, length)
                parts.append(data)
        fh.stats.inc("fetched_bytes", nbytes)
        return b"".join(parts)
