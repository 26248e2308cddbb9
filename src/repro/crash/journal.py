"""The TCIO write-ahead journal format.

Epoched flushes (``TcioConfig.journal = "epoch"``) append one record per
owned dirty segment to a per-rank journal file before any in-place data
write, then mark the epoch with a commit record in a shared commit file.
This module owns the byte format and its readers; ``tcio/epoch.py`` writes
it inside the simulation, ``tcio/survive.py`` replays it online, and
:mod:`repro.crash.recover` / :mod:`repro.crash.fsck` parse it back
host-side after a crash — all three through :func:`scan_journals`.

Layout
------
``<name>.journal.<rank>`` — a sequence of records, each::

    header   <IqqiI   magic, epoch, segment id, n_extents, payload crc32
    extents  n * <qq  absolute [start, stop) file byte ranges
    payload  concatenated bytes of the extents, in order

A rank's records for one epoch are one append of two PFS writes, the
first record's header+extents and then (after a crash point) the rest,
so a mid-flush crash leaves exactly one *torn* record at the tail:
header present, payload short or checksum-mismatched. Recovery discards
torn records — their epoch never committed, by construction.

``<name>.journal.commit`` — a sequence of commit marks, each::

    <IqqI   magic, epoch, eof at commit time, crc32 of (epoch, eof)

The largest epoch with a valid mark is the committed epoch; everything
journaled for later epochs is discarded on recovery.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

RECORD_MAGIC = 0x54434A52  # "TCJR"
COMMIT_MAGIC = 0x54434A43  # "TCJC"

_HEAD = struct.Struct("<IqqiI")  # magic, epoch, gseg, n_extents, payload crc
_EXTENT = struct.Struct("<qq")  # absolute [start, stop)
_COMMIT = struct.Struct("<IqqI")  # magic, epoch, eof, crc


def rank_journal(name: str, rank: int) -> str:
    """The per-rank journal file name for data file *name*."""
    return f"{name}.journal.{rank}"


def commit_name(name: str) -> str:
    """The shared commit-mark file name for data file *name*."""
    return f"{name}.journal.commit"


def is_journal_file(candidate: str, name: str) -> bool:
    """Whether *candidate* is one of *name*'s per-rank journal files."""
    prefix = f"{name}.journal."
    if not candidate.startswith(prefix):
        return False
    suffix = candidate[len(prefix):]
    return suffix.isdigit()


def pack_record_head(
    epoch: int, gseg: int, extents: list[tuple[int, int]], payload: bytes
) -> bytes:
    """Header + extent table of one journal record (the payload follows)."""
    head = _HEAD.pack(RECORD_MAGIC, epoch, gseg, len(extents), zlib.crc32(payload))
    return head + b"".join(_EXTENT.pack(lo, hi) for lo, hi in extents)


def pack_commit(epoch: int, eof: int) -> bytes:
    """One commit mark."""
    crc = zlib.crc32(struct.pack("<qq", epoch, eof))
    return _COMMIT.pack(COMMIT_MAGIC, epoch, eof, crc)


@dataclass
class JournalRecord:
    """One parsed journal record (possibly torn)."""

    epoch: int
    gseg: int
    extents: list[tuple[int, int]]
    crc: int
    payload: bytes
    torn: bool  # payload short/corrupt, or the extent table itself truncated

    @property
    def nbytes(self) -> int:
        """Bytes the record covers (sum of extent lengths)."""
        return sum(hi - lo for lo, hi in self.extents)

    def piece(self, index: int) -> bytes:
        """The payload slice belonging to ``extents[index]``."""
        base = sum(hi - lo for lo, hi in self.extents[:index])
        lo, hi = self.extents[index]
        return self.payload[base : base + (hi - lo)]


def iter_records(raw: bytes) -> list[JournalRecord]:
    """Parse a per-rank journal image into records, torn tail included.

    Parsing stops at the first corrupt header (a crash can only tear the
    *tail* — journals are append-only); a record whose payload is missing,
    short, or checksum-mismatched is yielded with ``torn=True``.
    """
    records: list[JournalRecord] = []
    pos = 0
    while pos + _HEAD.size <= len(raw):
        magic, epoch, gseg, n_extents, crc = _HEAD.unpack_from(raw, pos)
        if magic != RECORD_MAGIC or n_extents < 0:
            break
        pos += _HEAD.size
        if pos + n_extents * _EXTENT.size > len(raw):
            records.append(JournalRecord(epoch, gseg, [], crc, b"", torn=True))
            return records
        extents = [
            _EXTENT.unpack_from(raw, pos + i * _EXTENT.size)
            for i in range(n_extents)
        ]
        pos += n_extents * _EXTENT.size
        need = sum(hi - lo for lo, hi in extents)
        payload = raw[pos : pos + need]
        pos += need
        torn = len(payload) < need or zlib.crc32(payload) != crc
        records.append(JournalRecord(epoch, gseg, extents, crc, payload, torn))
        if torn:
            return records
    return records


def read_commits(raw: bytes) -> list[tuple[int, int]]:
    """Valid ``(epoch, eof)`` commit marks of a commit-file image.

    A torn trailing mark (short or checksum-mismatched) is ignored: its
    epoch simply never committed.
    """
    marks: list[tuple[int, int]] = []
    pos = 0
    while pos + _COMMIT.size <= len(raw):
        magic, epoch, eof, crc = _COMMIT.unpack_from(raw, pos)
        if magic != COMMIT_MAGIC:
            break
        if zlib.crc32(struct.pack("<qq", epoch, eof)) != crc:
            break
        marks.append((epoch, eof))
        pos += _COMMIT.size
    return marks


def committed_state(raw: bytes) -> tuple[int, int]:
    """The last committed ``(epoch, eof)`` — ``(0, 0)`` with no commits."""
    marks = read_commits(raw)
    if not marks:
        return (0, 0)
    return max(marks)


class JournalScan(NamedTuple):
    """What the journals of one data file hold (:func:`scan_journals`)."""

    committed: int  # the last committed epoch (0: none)
    eof: int  # the file size that commit recorded
    journals: list[str]  # the per-rank journal files read
    #: ``(journal name, record)`` of every intact record, in replay order:
    #: by ``(epoch, journal name, segment)`` — later epochs overwrite earlier
    #: ones; within an epoch extents are disjoint, one owner per segment.
    #: The committed ones are those with ``record.epoch <= committed``.
    records: list[tuple[str, JournalRecord]]
    torn: int  # torn tails skipped (their epoch never committed)


def scan_journals(pfs, name: str, journals: Optional[Iterable[str]] = None) -> JournalScan:
    """Read *name*'s commit file and per-rank journals, once: the
    *journals* named (missing ones skipped), by default every one the PFS
    holds for *name*."""
    committed, eof = (0, 0)
    if pfs.exists(commit_name(name)):
        committed, eof = committed_state(pfs.lookup(commit_name(name)).contents())
    if journals is None:
        journals = (f for f in sorted(pfs.list_files()) if is_journal_file(f, name))
    read, records, torn = [], [], 0
    for jname in journals:
        if pfs.exists(jname):
            read.append(jname)
            for rec in iter_records(pfs.lookup(jname).contents()):
                if rec.torn:
                    torn += 1
                else:
                    records.append((jname, rec))
    records.sort(key=lambda row: (row[1].epoch, row[0], row[1].gseg))
    return JournalScan(committed, eof, read, records, torn)
