"""Offline crash recovery: replay committed journal epochs into the file.

After a fail-stop crash aborts a simulated job, the PFS image survives in
the :class:`~repro.simmpi.mpi.MpiRunResult` — this module rebuilds a
consistent data file from it, exactly like a restarting job would:

1. read the commit file; the largest valid mark gives the committed epoch
   and its eof,
2. replay every journal record of every rank with ``epoch <= committed``
   in epoch order (later epochs overwrite earlier ones; records within an
   epoch touch disjoint extents, one owner per segment),
3. truncate the data file to the committed eof (no commits at all means
   truncate to zero — TCIO write handles have fresh-file semantics, so an
   uncommitted first epoch recovers to the empty file).

Recovery is host-side and charges no simulated time: it models a restart
tool that runs after the job is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.crash.journal import scan_journals
from repro.util.errors import PfsError, tag_job

if TYPE_CHECKING:  # pragma: no cover
    from repro.pfs.filesystem import Pfs


@dataclass
class RecoveryReport:
    """What one recovery pass did."""

    name: str
    committed_epoch: int
    eof: int
    replayed_records: int = 0
    replayed_bytes: int = 0
    #: Bytes that actually differed and were rewritten. Zero on a second
    #: pass (or after a clean shutdown): the idempotence witness.
    written_bytes: int = 0
    skipped_uncommitted: int = 0  # records of epochs past the last commit
    torn_records: int = 0  # torn tails discarded (never committed)
    journals: list[str] = field(default_factory=list)
    #: Owning job for multi-tenant runs (``None`` for solo recovery).
    job: "str | None" = None

    def summary(self) -> str:
        """One human-readable line."""
        jtag = f" [job {self.job}]" if self.job else ""
        return (
            f"recover {self.name}{jtag}: epoch {self.committed_epoch} "
            f"(eof {self.eof}), {self.replayed_records} records / "
            f"{self.replayed_bytes} bytes replayed, "
            f"{self.skipped_uncommitted} uncommitted skipped, "
            f"{self.torn_records} torn discarded"
        )


def recover(pfs: "Pfs", name: str, *, job: "str | None" = None) -> RecoveryReport:
    """Replay *name*'s journals into a consistent file image.

    Idempotent: running it twice (or after a clean shutdown) is harmless —
    committed records rewrite the bytes the file already holds. ``job``
    attributes the pass (and any error it raises) to one tenant of a
    shared PFS; pass it with the qualified ``"<job>/<file>"`` name when
    recovering a tenancy job's file.
    """
    if not pfs.exists(name):
        raise tag_job(PfsError(f"recover: no such file {name!r}"), job)
    data = pfs.lookup(name)
    scan = scan_journals(pfs, name)
    report = RecoveryReport(
        name=name, committed_epoch=scan.committed, eof=scan.eof, job=job,
        journals=scan.journals, torn_records=scan.torn,
    )
    for _fname, rec in scan.records:
        if rec.epoch > scan.committed:
            report.skipped_uncommitted += 1
            continue
        for i, (lo, hi) in enumerate(rec.extents):
            piece = rec.piece(i)
            # Compare-before-write keeps the pass idempotent: a second
            # run (a failover retry path, or recovery after a clean
            # shutdown) must leave the file image untouched, not dirty
            # it with byte-identical rewrites.
            if data.read_bytes(lo, len(piece)) != piece:
                data.write_bytes(lo, piece)
                report.written_bytes += len(piece)
        report.replayed_records += 1
        report.replayed_bytes += rec.nbytes
    if data.size != scan.eof:
        data.truncate(scan.eof)
    return report
