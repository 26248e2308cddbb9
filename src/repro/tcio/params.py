"""TCIO configuration.

"To use TCIO, a user needs to specify the segment size and the number of
segments per process" (Section IV.B). The segment size defaults to the file
system's lock granularity (= Lustre stripe size), the rule Section IV.A
derives: smaller segments contend for locks, larger ones unbalance the
level-2 distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.errors import TcioError


@dataclass(frozen=True)
class TcioConfig:
    """Tunables of one TCIO file handle.

    Attributes
    ----------
    segment_size:
        Level-2 segment bytes; ``None`` adopts the file system's lock
        granularity (the paper's choice). The level-1 buffer is the same
        size ("we set them to be equal, and each level-1 buffer is aligned
        with one level-2 buffer segment").
    segments_per_process:
        Level-2 capacity per rank. ``segments_per_process * segment_size *
        nranks`` must cover the file domain the application touches.
    use_rma:
        Ablation switch: ``True`` (paper) moves level-1 flushes with
        one-sided Put/Get under lock-request synchronization; ``False``
        routes them over two-sided isend/irecv to a progress loop — the
        design the paper rejects because per-datum I/O calls have no
        matching receive counts.
    combine_indexed:
        Ablation switch: ``True`` (paper) combines all blocks of a flush
        into one indexed transfer; ``False`` issues one Put/Get per block
        ("a large number of network connections, which would in turn
        degrade the performance").
    lazy_reads:
        Ablation switch: ``True`` (paper) defers data movement to
        ``tcio_fetch``/overflow; ``False`` fetches inside every read call.
    read_window_segments:
        How many segments of file domain pending lazy reads may span
        before an automatic fetch triggers. Pending reads are *metadata*
        (address, length, offset — the paper's own lazy-read records), so
        a wide window costs no staging memory; it lets distinct ranks
        drive distinct segment loads concurrently and spreads one fetch's
        one-sided gets over many owner nodes instead of convoying on one.
        The paper specifies only the trigger ("the file domain of cached
        reads exceeds the size of the level-1 buffer"), not the width;
        set 1 for the strictest reading (ablation).
    aggregation:
        ``"flat"`` (default, the paper's design) drains every level-1
        flush straight to the segment owner over the fabric. ``"node"``
        routes flushes whose owner lives on another node through the
        node's staging buffer instead: one leader per node coalesces them
        into a single indexed RMA per remote owner at the next collective
        point (``tcio_flush``/``tcio_close``). See ``docs/topology.md``.
        Write handles only; reads always use the flat path. Must agree
        across the ranks of one collective open.
    staging_segments:
        Capacity of the per-node staging buffer, in segments (only used
        with ``aggregation="node"``; allocated on the leader's ``memsim``
        budget). Deposits that would overflow fall back to the flat path.
    journal:
        Durability mode for flushes. ``"off"`` (default, the paper's
        design) writes segments back in place with no crash protection.
        ``"epoch"`` makes every flush an epoch of the two-phase journaled
        protocol: owners append write-ahead records (extents + checksum)
        to per-rank journal files before touching file data, and an epoch
        only counts once its commit mark lands — ``repro.crash.recover``
        can then rebuild a consistent image after a fail-stop crash. See
        ``docs/faults.md``. Write handles only; must agree across ranks.
    ft:
        Opt-in survive-and-complete fault tolerance (ULFM-style). When a
        member of the collective dies mid-protocol, the survivors shrink
        to a re-numbered communicator, re-partition the level-2 file
        domain, replay the dead rank's committed journal records, and
        complete the flush instead of aborting. Requires
        ``journal="epoch"`` (the survivor flush is built on the epoched
        durability protocol) and ``aggregation="flat"``. The only data
        lost is what sat solely in the dead rank's volatile memory —
        its level-1 buffer and its uncommitted own-slot deposits. See
        ``docs/faults.md``.
    """

    segment_size: Optional[int] = None
    segments_per_process: int = 16
    use_rma: bool = True
    combine_indexed: bool = True
    lazy_reads: bool = True
    read_window_segments: int = 64
    aggregation: str = "flat"
    staging_segments: int = 32
    journal: str = "off"
    ft: bool = False

    def validate(self) -> None:
        """Raise TcioError on out-of-range parameters."""
        if self.segment_size is not None and self.segment_size < 1:
            raise TcioError("segment_size must be positive")
        if self.segments_per_process < 1:
            raise TcioError("segments_per_process must be positive")
        if self.read_window_segments < 1:
            raise TcioError("read_window_segments must be positive")
        if self.aggregation not in ("flat", "node"):
            raise TcioError("aggregation must be 'flat' or 'node'")
        if self.staging_segments < 1:
            raise TcioError("staging_segments must be positive")
        if self.journal not in ("off", "epoch"):
            raise TcioError("journal must be 'off' or 'epoch'")
        if self.ft:
            if self.journal != "epoch":
                raise TcioError("ft requires journal='epoch'")
            if self.aggregation != "flat":
                raise TcioError("ft requires aggregation='flat'")

    def resolve_segment_size(self, lock_granularity: int) -> int:
        """The effective segment size (explicit or the lock granularity)."""
        size = self.segment_size if self.segment_size is not None else lock_granularity
        if size < 1:
            raise TcioError("resolved segment size must be positive")
        return size

    @staticmethod
    def sized_for(file_bytes: int, nranks: int, segment_size: int) -> "TcioConfig":
        """A config whose level-2 capacity covers *file_bytes* exactly —
        what the benchmark drivers use, and what makes TCIO's level-2
        memory equal OCIO's temporary buffer (the Fig. 6 comparison)."""
        total_segments = -(-file_bytes // segment_size)
        per_rank = -(-total_segments // nranks)
        return TcioConfig(
            segment_size=segment_size, segments_per_process=max(1, per_rank)
        )
