"""TCIO: Transparent Collective I/O — the paper's contribution.

A user-level library giving parallel applications POSIX-like I/O calls
(``tcio_open``, ``tcio_write[_at]``, ``tcio_read[_at]``, ``tcio_seek``,
``tcio_flush``, ``tcio_fetch``, ``tcio_close``; Program 1) while performing
collective-I/O optimization transparently:

* a private **level-1 buffer** per process combines the small blocks of
  sequential accesses; it is exactly one level-2 segment wide and aligned
  to the segment its blocks fall in;
* a shared **level-2 buffer**, partitioned into equal segments mapped
  round-robin over ranks by logical file offset (equations (1)–(3)),
  rearranges the requests of different processes into file order;
* level-1 ↔ level-2 movement uses **one-sided communication** under the
  lock-request paradigm (``MPI_Win_lock``/``unlock``; never a fence, which
  would be collective), with ``MPI_Type_indexed`` combining so one flush is
  one network transfer;
* reads are **lazy**: calls record (destination, length, offset) and data
  moves on ``tcio_fetch``, on level-1 domain overflow, or at close.
"""

from repro.tcio.params import TcioConfig
from repro.tcio.mapping import SegmentMapping
from repro.tcio.file import (
    TcioFile,
    tcio_open,
    tcio_write,
    tcio_write_at,
    tcio_read,
    tcio_read_at,
    tcio_seek,
    tcio_flush,
    tcio_fetch,
    tcio_close,
    TCIO_RDONLY,
    TCIO_WRONLY,
    SEEK_SET,
    SEEK_CUR,
    SEEK_END,
)
from repro.tcio.stats import TcioStats

__all__ = [
    "TcioConfig",
    "SegmentMapping",
    "TcioFile",
    "TcioStats",
    "tcio_open",
    "tcio_write",
    "tcio_write_at",
    "tcio_read",
    "tcio_read_at",
    "tcio_seek",
    "tcio_flush",
    "tcio_fetch",
    "tcio_close",
    "TCIO_RDONLY",
    "TCIO_WRONLY",
    "SEEK_SET",
    "SEEK_CUR",
    "SEEK_END",
]
