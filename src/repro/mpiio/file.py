"""``MPI_File``: the handle applications hold.

Mirrors the MPI-IO calls the paper's code listings use:

* ``MPI_File_open`` / ``MPI_File_close`` (collective),
* ``MPI_File_set_view`` (Program 2 step 10),
* ``MPI_File_write_all`` / ``read_all`` — OCIO's collective path,
* ``write_at`` / ``read_at`` / ``seek`` / ``write`` / ``read`` — the
  independent path ("vanilla MPI-IO" in the ART comparison).

Offsets follow MPI semantics: counted in **etypes** of the current view.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mpiio import independent, twophase
from repro.mpiio.fileview import FileView
from repro.mpiio.hints import IoHints
from repro.pfs.file import PfsFile
from repro.pfs.filesystem import PfsClient
from repro.simmpi import collectives
from repro.simmpi.datatypes import BYTE, Datatype
from repro.simmpi.mpi import RankEnv
from repro.util.errors import MpiIoError

MODE_RDONLY = 0x1
MODE_WRONLY = 0x2
MODE_RDWR = 0x4
MODE_CREATE = 0x8


def _coerce_bytes(data: object) -> bytes:
    if isinstance(data, bytes):
        return data
    if isinstance(data, (bytearray, memoryview)):
        return bytes(data)
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).tobytes()
    raise MpiIoError(f"unsupported buffer type {type(data).__name__}")


class MpiFile:
    """One rank's handle on a shared file."""

    def __init__(
        self,
        env: RankEnv,
        pfs_file: PfsFile,
        mode: int,
        hints: IoHints,
    ):
        self.env = env
        self.comm = env.comm.dup()  # library-internal matching context
        self.pfs_file = pfs_file
        self.mode = mode
        self.hints = hints
        self.view = FileView()
        self._position = 0  # individual file pointer, in etypes
        self._closed = False
        self._nodex = None  # lazy NodeExchange (hints.cb_aggregation="node")
        node = env.world.node_of[env.rank]
        self.client: PfsClient = env.pfs.client(node)

    # ------------------------------------------------------------------
    # lifecycle (collective)
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        env: RankEnv,
        name: str,
        mode: int = MODE_RDWR | MODE_CREATE,
        hints: Optional[IoHints] = None,
    ):
        """Collective open (coroutine): ``mf = yield from MpiFile.open(...)``.

        Every rank of the communicator must call it."""
        hints = hints or IoHints()
        hints.validate()
        if not (mode & (MODE_RDONLY | MODE_WRONLY | MODE_RDWR)):
            raise MpiIoError("open mode needs RDONLY, WRONLY or RDWR")
        if mode & MODE_CREATE:
            pfs_file = env.pfs.create(name)
        else:
            pfs_file = env.pfs.lookup(name)
        handle = cls(env, pfs_file, mode, hints)
        yield from collectives.barrier(handle.comm)
        return handle

    def close(self):
        """Collective close (coroutine; synchronizes, like MPI_File_close)."""
        self._check_open()
        yield from collectives.barrier(self.comm)
        self._closed = True

    # ------------------------------------------------------------------
    # views and pointers
    # ------------------------------------------------------------------
    def set_view(
        self,
        displacement: int = 0,
        etype: Datatype = BYTE,
        filetype: Optional[Datatype] = None,
    ):
        """MPI_File_set_view: collective coroutine; resets the pointer."""
        self._check_open()
        self.view = FileView(displacement, etype, filetype)
        self._position = 0
        yield from collectives.barrier(self.comm)

    def seek(self, offset_etypes: int, whence: int = 0) -> None:
        """MPI_File_seek: whence 0=set, 1=cur, 2=end (end in etypes of view)."""
        self._check_open()
        if whence == 0:
            new = offset_etypes
        elif whence == 1:
            new = self._position + offset_etypes
        elif whence == 2:
            new = self.size_etypes() + offset_etypes
        else:
            raise MpiIoError(f"bad seek whence {whence}")
        if new < 0:
            raise MpiIoError(f"seek to negative offset {new}")
        self._position = new

    def tell(self) -> int:
        """The individual file pointer, in etypes."""
        return self._position

    def size_bytes(self) -> int:
        """Current file size in bytes."""
        return self.pfs_file.size

    def size_etypes(self) -> int:
        """File size expressed in view etypes (rounded down)."""
        return self.view.stream_size_for(self.pfs_file.size) // self.view.etype.size

    # ------------------------------------------------------------------
    # independent I/O
    # ------------------------------------------------------------------
    def write_at(self, offset_etypes: int, data: object, count: Optional[int] = None,
                 datatype: Datatype = BYTE):
        """Independent write at an explicit view offset (coroutine);
        returns bytes written."""
        self._check_open(writing=True)
        payload = self._prepare(data, count, datatype)
        yield from independent.write_view(
            self, self.view.byte_offset(offset_etypes), payload
        )
        return len(payload)

    def read_at(self, offset_etypes: int, count: int, datatype: Datatype = BYTE):
        """Independent read at an explicit view offset (coroutine);
        returns raw bytes."""
        self._check_open(reading=True)
        nbytes = count * datatype.size
        return (
            yield from independent.read_view(
                self, self.view.byte_offset(offset_etypes), nbytes
            )
        )

    def write(self, data: object, count: Optional[int] = None, datatype: Datatype = BYTE):
        """Independent write at the individual pointer (coroutine;
        advances it)."""
        self._check_open(writing=True)
        payload = self._prepare(data, count, datatype)
        yield from independent.write_view(
            self, self.view.byte_offset(self._position), payload
        )
        self._advance(len(payload))
        return len(payload)

    def read(self, count: int, datatype: Datatype = BYTE):
        """Independent read at the individual pointer (coroutine;
        advances it)."""
        self._check_open(reading=True)
        nbytes = count * datatype.size
        out = yield from independent.read_view(
            self, self.view.byte_offset(self._position), nbytes
        )
        self._advance(nbytes)
        return out

    # ------------------------------------------------------------------
    # collective I/O (OCIO)
    # ------------------------------------------------------------------
    def write_at_all(self, offset_etypes: int, data: object, count: Optional[int] = None,
                     datatype: Datatype = BYTE):
        """MPI_File_write_at_all: two-phase collective write (coroutine)."""
        self._check_open(writing=True)
        payload = self._prepare(data, count, datatype)
        yield from twophase.write_all(
            self, self.view.byte_offset(offset_etypes), payload
        )
        return len(payload)

    def write_all(self, data: object, count: Optional[int] = None,
                  datatype: Datatype = BYTE):
        """MPI_File_write_all at the individual pointer (coroutine;
        Program 2 step 11)."""
        self._check_open(writing=True)
        payload = self._prepare(data, count, datatype)
        yield from twophase.write_all(
            self, self.view.byte_offset(self._position), payload
        )
        self._advance(len(payload))
        return len(payload)

    def read_at_all(self, offset_etypes: int, count: int, datatype: Datatype = BYTE):
        """MPI_File_read_at_all: two-phase collective read (coroutine)."""
        self._check_open(reading=True)
        nbytes = count * datatype.size
        return (
            yield from twophase.read_all(
                self, self.view.byte_offset(offset_etypes), nbytes
            )
        )

    def read_all(self, count: int, datatype: Datatype = BYTE):
        """MPI_File_read_all at the individual pointer (coroutine;
        advances it)."""
        self._check_open(reading=True)
        nbytes = count * datatype.size
        out = yield from twophase.read_all(
            self, self.view.byte_offset(self._position), nbytes
        )
        self._advance(nbytes)
        return out

    # ------------------------------------------------------------------
    # size management
    # ------------------------------------------------------------------
    def set_size(self, nbytes: int):
        """MPI_File_set_size (collective coroutine): truncate or extend."""
        self._check_open()
        if nbytes < 0:
            raise MpiIoError("negative file size")
        self.pfs_file.truncate(nbytes)
        yield from collectives.barrier(self.comm)

    def preallocate(self, nbytes: int):
        """MPI_File_preallocate (collective coroutine): at least *nbytes*."""
        self._check_open()
        if nbytes < 0:
            raise MpiIoError("negative preallocation")
        if nbytes > self.pfs_file.size:
            self.pfs_file.truncate(nbytes)
        yield from collectives.barrier(self.comm)

    # ------------------------------------------------------------------
    def _prepare(self, data: object, count: Optional[int], datatype: Datatype) -> bytes:
        payload = _coerce_bytes(data)
        if count is not None:
            need = count * datatype.size
            if need > len(payload):
                raise MpiIoError(
                    f"buffer of {len(payload)} bytes too small for "
                    f"count={count} x {datatype.size}B"
                )
            payload = payload[:need]
        return payload

    def _copy_cost(self, nbytes: int) -> None:
        """Charge local pack/scatter/gather memcpy time."""
        if nbytes > 0:
            self.env.compute(nbytes / self.env.world.fabric.spec.memcpy_bandwidth)

    def _advance(self, nbytes: int) -> None:
        if nbytes % self.view.etype.size != 0:
            raise MpiIoError("access is not a whole number of etypes")
        self._position += nbytes // self.view.etype.size

    def _check_open(self, *, writing: bool = False, reading: bool = False) -> None:
        if self._closed:
            raise MpiIoError("file handle is closed")
        if writing and not (self.mode & (MODE_WRONLY | MODE_RDWR)):
            raise MpiIoError("file not opened for writing")
        if reading and not (self.mode & (MODE_RDONLY | MODE_RDWR)):
            raise MpiIoError("file not opened for reading")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MpiFile {self.pfs_file.name!r} rank={self.env.rank}>"
