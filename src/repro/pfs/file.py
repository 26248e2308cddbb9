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
        self._data = bytearray()

    @property
    def size(self) -> int:
        """Current file size in bytes."""
        return len(self._data)

    def write_bytes(self, offset: int, data: bytes | memoryview) -> None:
        """Store *data* at *offset*, growing as needed.

        Only the gap between the old end of file and *offset* is
        zero-filled; the slice assignment itself extends the file by the
        part of *data* past the end.
        """
        if offset < 0:
            raise PfsError(f"negative write offset {offset}")
        gap = offset - len(self._data)
        if gap > 0:
            self._data.extend(bytes(gap))
        self._data[offset : offset + len(data)] = data

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        """Fetch *nbytes* at *offset*; holes and post-EOF read as zeros."""
        if offset < 0 or nbytes < 0:
            raise PfsError(f"bad read [{offset}, +{nbytes})")
        chunk = bytes(self._data[offset : offset + nbytes])
        if len(chunk) < nbytes:
            chunk += b"\x00" * (nbytes - len(chunk))
        return chunk

    def truncate(self, size: int) -> None:
        """Shrink or zero-extend the file to *size* bytes."""
        if size < 0:
            raise PfsError("negative truncate size")
        if size < len(self._data):
            del self._data[size:]
        else:
            self._data.extend(b"\x00" * (size - len(self._data)))

    def contents(self) -> bytes:
        """The whole file (for test assertions)."""
        return bytes(self._data)
