"""Independent (non-collective) I/O, with ROMIO-style data sieving.

A contiguous-in-view access that is noncontiguous in the file becomes many
small file requests; data sieving instead reads/writes the bounding extent
once and scatters/gathers in memory. For writes the sieve is a
read-modify-write (MPI's nonatomic default: concurrent overlapping writers
are undefined, so the two storage calls need not be atomic together).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.retry import pfs_read, pfs_retry, pfs_write
from repro.util.intervals import Extent

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpiio.file import MpiFile


def write_view(mf: "MpiFile", stream_pos: int, data: bytes):
    """Write *data* at view stream position *stream_pos* (coroutine)."""
    if not data:
        return
    pieces = mf.view.map_pieces(stream_pos, len(data))
    world = mf.env.world
    if len(pieces) == 1:
        ext, _ = pieces[0]
        yield from pfs_write(
            world, mf.client, mf.env.rank, mf.pfs_file, "mpiio.write", ext.start, data
        )
        return
    bounding = Extent(pieces[0][0].start, pieces[-1][0].stop)
    useful = sum(e.length for e, _ in pieces)
    hints = mf.hints
    if hints.ds_write and useful >= hints.ds_hole_threshold * bounding.length:
        # Sieve: read-modify-write under one exclusive lock (the two
        # storage operations must be atomic against other sieving writers
        # whose bounding extents overlap ours).
        mf._copy_cost(useful)
        sieved = [
            (ext.start, data[mem_off : mem_off + ext.length])
            for ext, mem_off in pieces
        ]
        yield from pfs_retry(
            world,
            "mpiio.sieve_write",
            lambda t: mf.client.write_sieved(
                mf.pfs_file, sieved, owner=mf.env.rank, lock_timeout=t
            ),
        )
        world.trace.count("mpiio.sieve_write", useful)
        return
    for ext, mem_off in pieces:
        yield from pfs_write(
            world, mf.client, mf.env.rank, mf.pfs_file,
            "mpiio.write", ext.start, data[mem_off : mem_off + ext.length],
        )


def read_view(mf: "MpiFile", stream_pos: int, nbytes: int):
    """Read *nbytes* of the view stream starting at *stream_pos*
    (coroutine)."""
    if nbytes == 0:
        return b""
    pieces = mf.view.map_pieces(stream_pos, nbytes)
    world = mf.env.world
    if len(pieces) == 1:
        ext, _ = pieces[0]
        return (yield from pfs_read(
            world, mf.client, mf.env.rank, mf.pfs_file,
            "mpiio.read", ext.start, ext.length,
        ))
    bounding = Extent(pieces[0][0].start, pieces[-1][0].stop)
    useful = sum(e.length for e, _ in pieces)
    out = bytearray(nbytes)
    hints = mf.hints
    if hints.ds_read and useful >= hints.ds_hole_threshold * bounding.length:
        blob = yield from pfs_read(
            world, mf.client, mf.env.rank, mf.pfs_file,
            "mpiio.sieve_read", bounding.start, bounding.length,
        )
        for ext, mem_off in pieces:
            lo = ext.start - bounding.start
            out[mem_off : mem_off + ext.length] = blob[lo : lo + ext.length]
        mf._copy_cost(useful)
        world.trace.count("mpiio.sieve_read", useful)
    else:
        for ext, mem_off in pieces:
            chunk = yield from pfs_read(
                world, mf.client, mf.env.rank, mf.pfs_file,
                "mpiio.read", ext.start, ext.length,
            )
            out[mem_off : mem_off + ext.length] = chunk
    return bytes(out)
