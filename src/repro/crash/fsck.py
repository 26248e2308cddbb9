"""Post-crash file verification: classify every byte of a TCIO file.

``fsck(pfs, name)`` reads the surviving PFS image (data file + journals +
commit file) and accounts for every byte inside the committed eof:

* **committed** — covered by a committed journal record whose payload
  matches the file content,
* **torn** — covered by a committed record but the file disagrees (an
  in-place writeback that never finished and was not repaired; running
  :func:`repro.crash.recover.recover` first fixes these),
* **untracked** — inside the committed eof but covered by no committed
  record (with journaling on from the first write this means metadata
  corruption; a file is only *clean* with zero torn and zero untracked
  bytes).

Bytes journaled for epochs past the last commit are reported as
**uncommitted** — expected after a crash, discarded by recovery.

Passing a :class:`CrashContext` (the in-memory segment directory dug out
of an aborted run) additionally detects **lost** bytes: data some rank
deposited into level-2 volatile memory that reached neither a committed
journal record nor the file via the degraded direct-write fallback. This
is the only way to quantify loss with ``journal="off"`` — the PFS image
alone cannot tell what never arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.crash.journal import commit_name, scan_journals
from repro.util.errors import PfsError, tag_job

if TYPE_CHECKING:  # pragma: no cover
    from repro.pfs.filesystem import Pfs
    from repro.simmpi.mpi import MpiWorld
    from repro.tcio.level2 import SegmentDirectory


@dataclass
class CrashContext:
    """In-memory TCIO state of an aborted run, for lost-byte detection."""

    directory: "SegmentDirectory"

    @classmethod
    def from_world(cls, world: "MpiWorld", name: str) -> Optional["CrashContext"]:
        """Dig the newest open generation's segment directory for *name*
        out of ``world.shared`` (survives the abort)."""
        best = None
        best_gen = -1
        for key, value in world.shared.items():
            if (
                isinstance(key, tuple)
                and len(key) == 3
                and key[0] == "tcio-dir"
                and key[1] == name
                and key[2] > best_gen
            ):
                best_gen, best = key[2], value
        return None if best is None else cls(directory=best)


@dataclass
class FsckReport:
    """Byte accounting of one fsck pass."""

    name: str
    committed_epoch: int
    eof: int  # committed eof (0 without commits)
    file_size: int
    committed_bytes: int = 0
    torn_bytes: int = 0
    untracked_bytes: int = 0
    uncommitted_bytes: int = 0  # journaled past the last commit (discarded)
    uncommitted_records: int = 0
    torn_records: int = 0  # torn journal tails (never committed; harmless)
    #: Bytes written straight to the PFS by the degraded direct-write
    #: fallback (unreachable segment owner). They bypass the journal, so
    #: only a CrashContext can account for them.
    fallback_bytes: int = 0
    lost_bytes: int = 0  # deposited to volatile memory, durable nowhere
    lost_extents: list[tuple[int, int]] = field(default_factory=list)
    journals: list[str] = field(default_factory=list)
    #: Owning job for multi-tenant runs (``None`` for solo fsck).
    job: "str | None" = None

    @property
    def clean(self) -> bool:
        """Every byte inside the committed eof is accounted for and
        matches its journal record. Lost/uncommitted bytes are *reported*
        separately — they are the expected cost of a crash, not
        corruption of the recovered image."""
        return self.torn_bytes == 0 and self.untracked_bytes == 0

    def summary(self) -> str:
        """One human-readable line."""
        state = "clean" if self.clean else "NOT CLEAN"
        jtag = f" [job {self.job}]" if self.job else ""
        return (
            f"fsck {self.name}{jtag}: {state} — epoch {self.committed_epoch} "
            f"(eof {self.eof}, file {self.file_size}b): "
            f"{self.committed_bytes} committed, {self.torn_bytes} torn, "
            f"{self.untracked_bytes} untracked; "
            f"{self.uncommitted_bytes}b/{self.uncommitted_records}r "
            f"uncommitted, {self.torn_records} torn records, "
            f"{self.fallback_bytes} fallback, {self.lost_bytes} lost"
        )


def _merge(extents: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted, coalesced, non-empty intervals."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(extents):
        if lo >= hi:
            continue
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _subtract(
    base: list[tuple[int, int]], holes: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """``base`` minus ``holes`` (both interval lists)."""
    out: list[tuple[int, int]] = []
    for lo, hi in _merge(base):
        cur = lo
        for hlo, hhi in _merge(holes):
            if hhi <= cur or hlo >= hi:
                continue
            if hlo > cur:
                out.append((cur, hlo))
            cur = max(cur, hhi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return out


def fsck(
    pfs: "Pfs",
    name: str,
    *,
    context: Optional[CrashContext] = None,
    job: "str | None" = None,
) -> FsckReport:
    """Classify every byte of *name* against its journals (see module doc).

    ``job`` attributes the report (and any raised error) to one tenant of
    a shared PFS — see :func:`repro.crash.recover.recover`.
    """
    if not pfs.exists(name):
        raise tag_job(PfsError(f"fsck: no such file {name!r}"), job)
    data = pfs.lookup(name)
    scan = scan_journals(pfs, name)
    committed, eof = scan.committed, scan.eof
    report = FsckReport(
        name=name, committed_epoch=committed, eof=eof, file_size=data.size, job=job,
        journals=scan.journals, torn_records=scan.torn,
    )

    # Build the expected image from committed records, later epochs last
    # (a re-dirtied segment is re-journaled; only the newest copy must
    # match the file). Without any journal state (``journal="off"``) the
    # per-byte classes don't apply — only context-based loss detection
    # can say anything about the file.
    journaled = bool(report.journals) or pfs.exists(commit_name(name))
    span = min(eof, data.size) if committed else (data.size if journaled else 0)
    expected = bytearray(span)
    covered = bytearray(span)
    for _fname, rec in scan.records:  # replay order
        if rec.epoch > committed:
            report.uncommitted_records += 1
            report.uncommitted_bytes += rec.nbytes
            continue
        for i, (lo, hi) in enumerate(rec.extents):
            lo2, hi2 = max(lo, 0), min(hi, span)
            if lo2 >= hi2:
                continue
            piece = rec.piece(i)
            expected[lo2:hi2] = piece[lo2 - lo : hi2 - lo]
            covered[lo2:hi2] = b"\x01" * (hi2 - lo2)

    # Bytes the degraded direct-write fallback put straight in the file:
    # legitimately journal-free, but only the in-memory directory knows.
    fallback = bytearray(span)
    if context is not None and context.directory.segment_size > 0:
        seg = context.directory.segment_size
        for g, ranges in context.directory.fallback_ranges.items():
            for flo, fhi in ranges:
                lo2, hi2 = max(g * seg + flo, 0), min(g * seg + fhi, span)
                if lo2 < hi2:
                    fallback[lo2:hi2] = b"\x01" * (hi2 - lo2)

    actual = data.contents()[:span]
    for pos in range(span):
        if covered[pos]:
            if actual[pos] == expected[pos]:
                report.committed_bytes += 1
            else:
                report.torn_bytes += 1
        elif fallback[pos]:
            report.fallback_bytes += 1
        else:
            report.untracked_bytes += 1

    if context is not None:
        report.lost_bytes, report.lost_extents = _lost(report, context, covered)
    return report


def _lost(
    report: FsckReport, context: CrashContext, covered: bytearray
) -> tuple[int, list[tuple[int, int]]]:
    """Deposited-but-nowhere-durable extents, from the aborted run's
    in-memory directory.

    Data is *lost* when some rank deposited it into a level-2 slot
    (volatile memory) of a segment that was never written back
    (``dirty`` and not ``flushed``), and it is covered by neither a
    committed journal record nor a degraded direct PFS write
    (``fallback_ranges``). Only meaningful after an abort — a run that
    closed cleanly has flushed every dirty segment.
    """
    d = context.directory
    seg = d.segment_size
    if seg <= 0:
        return 0, []
    at_risk: list[tuple[int, int]] = []
    durable: list[tuple[int, int]] = [
        (pos, pos + 1) for pos in range(len(covered)) if covered[pos]
    ]
    for g in sorted(d.dirty - d.flushed):
        base = g * seg
        rows = d.deposited.get(g, ())
        for disp, length in zip(rows[0::3], rows[1::3]):
            lo = base + disp
            hi = min(base + disp + length, d.eof)
            if lo < hi:
                at_risk.append((lo, hi))
        for flo, fhi in d.fallback_ranges.get(g, ()):
            durable.append((base + flo, base + fhi))
    lost = _subtract(at_risk, durable)
    return sum(hi - lo for lo, hi in lost), lost
