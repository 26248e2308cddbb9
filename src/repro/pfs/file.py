"""A stored file: real bytes, striping metadata, and its lock manager."""

from __future__ import annotations

from repro.pfs.layout import StripeLayout
from repro.pfs.lockmgr import LockManager
from repro.util.errors import PfsError


class PfsFile:
    """One file in the simulated file system.

    Data lives in a growable bytearray (sparse regions read as zeros, like
    a POSIX sparse file), so every experiment can verify byte-exact content
    against a reference writer.
    """

    def __init__(
        self,
        name: str,
        layout: StripeLayout,
        lock_contention_penalty: float = 0.0,
        trace=None,
    ):
        self.name = name
        self.layout = layout
        self.locks = LockManager(layout.stripe_size, lock_contention_penalty, trace)
        #: The file's bytes. A caller may read them in place, or hand a
        #: whole bytearray over instead of copying it in (the benchmark
        #: moves one job's output into the next job's file this way).
        self.data = bytearray()

    @property
    def size(self) -> int:
        """Current file size in bytes."""
        return len(self.data)

    def write_bytes(self, offset: int, data: bytes | memoryview) -> None:
        """Store *data* at *offset*, growing as needed.

        The file grows once, to the write's end: a write that starts past
        the end zero-fills up to that end first (the gap reads as zeros)
        and then copies in place; any other write is one slice assignment.
        """
        if offset < 0:
            raise PfsError(f"negative write offset {offset}")
        end = offset + len(data)
        if offset > len(self.data):
            self.data.extend(bytes(end - len(self.data)))
        self.data[offset:end] = data

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        """Fetch *nbytes* at *offset*; holes and post-EOF read as zeros."""
        if offset < 0 or nbytes < 0:
            raise PfsError(f"bad read [{offset}, +{nbytes})")
        chunk = bytes(memoryview(self.data)[offset : offset + nbytes])
        if len(chunk) < nbytes:
            chunk += b"\x00" * (nbytes - len(chunk))
        return chunk

    def truncate(self, size: int) -> None:
        """Shrink or zero-extend the file to *size* bytes."""
        if size < 0:
            raise PfsError("negative truncate size")
        if size < len(self.data):
            del self.data[size:]
        else:
            self.data.extend(b"\x00" * (size - len(self.data)))

    def contents(self) -> bytes:
        """The whole file (for test assertions)."""
        return bytes(self.data)
