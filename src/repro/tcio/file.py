"""The TCIO handle and the Program-1 API.

::

    tcio_file * tcio_open(char * fname, int mode)
    tcio_write   (fh, data, count, type)
    tcio_write_at(fh, offset, data, count, type)
    tcio_read    (fh, data, count, type)
    tcio_read_at (fh, offset, data, count, type)
    tcio_seek    (fh, offset, whence)
    tcio_flush   (fh)        # collective: level-1 -> level-2, MPI_Barrier
    tcio_fetch   (fh)        # load recorded lazy reads into their targets
    tcio_close   (fh)        # collective: barrier, level-2 -> file system

Write calls combine into the level-1 buffer and spill to the level-2
buffer (one-sided, indexed) when the access leaves the aligned segment;
read calls record (address, length, offset) and load lazily. ``tcio_close``
synchronizes, then each rank writes the dirty segments *it owns* to the
file system as large aligned accesses — the collective-I/O effect, achieved
without file views or application-level combine buffers.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Optional, Union

import numpy as np

from repro.faults.retry import pfs_read, pfs_write
from repro.obs.spans import NULL_SPAN
from repro.sim.api import run_coroutine
from repro.simmpi import collectives
from repro.simmpi.datatypes import BYTE, Datatype
from repro.simmpi.mpi import RankEnv
from repro.simmpi.rma import gather
from repro.tcio.degrade import Degrade
from repro.tcio.epoch import EpochJournal
from repro.tcio.level1 import Level1Buffer, ReadLog
from repro.tcio.level2 import Level2Buffer, SegmentDirectory
from repro.tcio.mapping import SegmentMapping
from repro.tcio.nodedrain import NodeDrain
from repro.tcio.params import TcioConfig
from repro.tcio.stats import TcioStats
from repro.tcio.survive import Survive
from repro.util.errors import TcioError
from repro.util.intervals import merge_ranges

TCIO_RDONLY = 0x1
TCIO_WRONLY = 0x2

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2

Buffer = Union[bytes, bytearray, memoryview, np.ndarray]
#: One segment's share of a fetch, one piece per entry of four parallel
#: ``array("q")`` columns: its disp and length in the segment (what a pull
#: takes), and the base and byte offset it lands at (see ``ReadLog``).
_Requests = tuple[array, array, array, array]


def _as_payload(data: Buffer, count: Optional[int], datatype: Datatype) -> bytes:
    if isinstance(data, np.ndarray):
        raw = data.tobytes()  # C order, whatever the array's strides
    else:
        raw = bytes(data)
    if count is not None:
        need = count * datatype.size
        if need > len(raw):
            raise TcioError(
                f"buffer of {len(raw)} bytes too small for count={count} "
                f"x {datatype.size}B elements"
            )
        raw = raw[:need]
    return raw


def _as_dest(data: Buffer) -> memoryview:
    view = memoryview(data)
    if view.readonly:
        raise TcioError("read target is read-only")
    if not view.c_contiguous:
        raise TcioError("read target must be C-contiguous")
    return view.cast("B")


class TcioFile:
    """One rank's TCIO handle on a shared file.

    Construct with ``fh = yield from TcioFile.open(...)`` — the open is a
    collective coroutine (it barriers), so there is no plain constructor.
    """

    @classmethod
    def open(
        cls,
        env: RankEnv,
        name: str,
        mode: int,
        config: Optional[TcioConfig] = None,
        comm=None,
    ):
        """Collective open over ``comm`` (default: the world communicator).

        Coroutine: ``fh = yield from TcioFile.open(env, name, mode)``.
        Passing a sub-communicator runs this handle's collective I/O over
        just that group — ParColl-style partitioned aggregation composes
        for free (see ``examples/partitioned_groups.py``).
        """
        self = cls.__new__(cls)
        config = config or TcioConfig()
        config.validate()
        if mode not in (TCIO_RDONLY, TCIO_WRONLY):
            raise TcioError("mode must be TCIO_RDONLY or TCIO_WRONLY")
        self.env = env
        self.name = name
        self.mode = mode
        self.config = config
        self.comm = (comm if comm is not None else env.comm).dup()
        self.stats = TcioStats()
        # The per-call path, bound once: this direction's two counters, and
        # the memcpy charge (one ``length / bandwidth`` per call, in call
        # order — float addition is not associative, so batching the charge
        # would move the simulated clock by an ulp).
        if mode == TCIO_WRONLY:
            self._calls = self.stats.counter("write_calls")
            self._bytes = self.stats.counter("written_bytes")
        else:
            self._calls = self.stats.counter("read_calls")
            self._bytes = self.stats.counter("read_bytes")
        self._charge = env.process.charge
        self._memcpy_bandwidth = env.world.fabric.spec.memcpy_bandwidth
        self._closed = False
        self._position = 0
        self._trace = env.world.trace
        self._tracer = self._trace.tracer
        self._plan = getattr(env.world, "faults", None)
        # The optional stages, chosen once from what this open can observe;
        # None is "absent", tested at the collective point and at a level-1
        # drain, never per call. A default handle on an unfaulted world has
        # none of them and is the paper's Section III alone.
        writing = mode == TCIO_WRONLY
        self._degrade = Degrade(self) if self._plan is not None else None
        self._survive = Survive(self) if config.ft and writing else None
        self._epoch = self._nodedrain = None

        with self._tracer.span("tcio.open", file=name):
            pfs = env.pfs
            if writing:
                # Write handles have fresh-file semantics: dirty segments
                # are written back whole, so stale bytes must not survive.
                self.pfs_file = pfs.create(name)
                self.pfs_file.truncate(0)
                if config.journal == "epoch":
                    self._epoch = EpochJournal(self)
            else:
                self.pfs_file = pfs.lookup(name)

            node = env.world.node_of[env.rank]
            self.client = pfs.client(node)
            segment_size = config.resolve_segment_size(
                self.pfs_file.layout.stripe_size
            )
            self.mapping = SegmentMapping(segment_size, self.comm.size)

            # Collectively shared metadata: every rank reaches this setdefault
            # inside the collective open. Opens are collective and ordered, so
            # each rank's per-name open counter agrees globally and keys one
            # fresh directory per open generation (a handle never sees stale
            # dirty/loaded state from an earlier open of the same name).
            seq_key = ("tcio-openseq", name, env.rank)  # env.rank: world rank
            gen = env.world.shared.get(seq_key, 0)
            env.world.shared[seq_key] = gen + 1
            self.directory: SegmentDirectory = env.world.shared.setdefault(
                ("tcio-dir", name, gen), SegmentDirectory()
            )
            # Geometry mirror for offline crash tooling (fsck/recover dig
            # the directory out of ``world.shared`` after an abort).
            self.directory.segment_size = segment_size
            self.directory.nranks = self.comm.size

            # Simulated memory: one level-1 buffer + this rank's level-2 share
            # (allocated first; kept at ``_allocs[1]``, which a survive round replaces).
            memory = env.world.memory
            level2_alloc = memory.allocate(
                env.rank, config.segments_per_process * segment_size, "tcio.level2"
            )
            self._allocs = [memory.allocate(env.rank, segment_size, "tcio.level1"), level2_alloc]

            # Nothing on the read path places a byte in level 1: a read
            # handle keeps the simulated allocation, not the host buffer.
            self.level1 = Level1Buffer(segment_size) if writing else None
            self.readlog = ReadLog(segment_size * config.read_window_segments)
            self.level2 = yield from self._create_level2(
                self.comm, self.mapping, config.segments_per_process
            )
            if config.aggregation == "node" and writing and self.comm.size > 1:
                self._nodedrain = yield from NodeDrain.arm(self, gen)
            # Where a drained level-1 buffer goes, and where a fetch pulls
            # from: level 2, unless a stage stands in front of it.
            front = self._survive or self._nodedrain or self._degrade
            self._deposit = front.deposit if front else self.level2.push_blocks
            self._pull = (self._degrade or self.level2).pull_blocks
            yield from collectives.barrier(self.comm)
        return self

    def _create_level2(self, comm, mapping: SegmentMapping, segments_per_process: int):
        """This handle's level-2 slice over *comm* (collective coroutine)."""
        return Level2Buffer.create(
            comm,
            mapping,
            segments_per_process,
            self.directory,
            self.stats,
            use_rma=self.config.use_rma,
            combine_indexed=self.config.combine_indexed,
            tracer=self._tracer,
        )

    # There is deliberately no context-manager protocol: ``close()`` is a
    # collective coroutine and ``__exit__`` cannot ``yield from``. Spell
    # the old ``with`` pattern as::
    #
    #     fh = yield from tcio_open(env, name, mode)
    #     try:
    #         ...
    #         yield from fh.close()
    #     except BaseException:
    #         fh.abort()   # local-only teardown; never deadlocks peers
    #         raise

    # ------------------------------------------------------------------
    # positioning
    # ------------------------------------------------------------------
    def seek(self, offset: int, whence: int = SEEK_SET) -> int:
        """tcio_seek: move the handle's position (SET/CUR/END)."""
        self._check_open()
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = self._position + offset
        elif whence == SEEK_END:
            base = self.pfs_file.size if self.mode == TCIO_RDONLY else self.directory.eof
            new = base + offset
        else:
            raise TcioError(f"bad seek whence {whence}")
        if new < 0:
            raise TcioError(f"seek to negative offset {new}")
        self._position = new
        return new

    def tell(self) -> int:
        """The current file position in bytes."""
        return self._position

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(self, data: Buffer, count: Optional[int] = None,
              datatype: Datatype = BYTE):
        """POSIX-style sequential write at the current position (coroutine)."""
        n = yield from self.write_at(self._position, data, count, datatype)
        self._position += n
        return n

    def write_at(self, offset: int, data: Buffer, count: Optional[int] = None,
                 datatype: Datatype = BYTE):
        """Write at an explicit byte offset (coroutine; pointer unmoved)."""
        if self._closed or self.mode != TCIO_WRONLY:
            self._check_open(writing=True)
        # write_at is the simulator's single hottest entry point (one call
        # per application block): the common call — an ndarray piece inside
        # the segment level 1 already holds — costs this frame, the charge
        # and the place.
        if count is None and isinstance(data, np.ndarray):
            payload = data.tobytes()
        else:
            payload = _as_payload(data, count, datatype)
        length = len(payload)
        if not length:
            return 0
        self._charge(length / self._memcpy_bandwidth)
        level1 = self.level1
        seg_size = level1.segment_size
        gseg = offset // seg_size
        disp = offset - gseg * seg_size
        if gseg == level1.aligned_segment and disp + length <= seg_size:
            level1.place(disp, payload)
        else:
            pos = 0
            for gseg, disp, take in self.mapping.locate(offset, length):
                if level1.aligned_segment != gseg:
                    if level1.aligned_segment is not None:
                        yield from self._flush_level1()
                    level1.align(gseg)
                level1.place(
                    disp, payload if take == length else payload[pos : pos + take]
                )
                pos += take
        end = offset + length
        if end > self.directory.eof:
            self.directory.eof = end
        calls, moved = self._calls, self._bytes
        calls.count += 1
        calls.total += 1
        moved.count += length
        moved.total += length
        return length

    def _flush_level1(self):
        level1 = self.level1
        if level1.empty:
            level1.aligned_segment = None
            return
        drained = level1.take()
        if self._plan is None:
            yield from self._deposit(*drained)
            return
        # Crash points bracket the deposit: before it, this rank's level-1
        # data dies with the rank; after it, the data sits in the owner's
        # volatile level-2 memory (journaling decides whether it survives).
        yield from self._crash_point("pre-deposit")
        yield from self._deposit(*drained)
        yield from self._crash_point("post-deposit")

    def _crash_point(self, step: str):
        """Named crash-injection point (one attribute test when unfaulted).

        Coroutine: delivering a crash needs the victim parked, so the
        world's crash hook may block the caller momentarily.
        """
        if self._plan is not None:
            yield from run_coroutine(self.env.world.crash_point(step, self.env.rank))

    # ------------------------------------------------------------------
    # reads (lazy by default)
    # ------------------------------------------------------------------
    def read(self, dest: Buffer, count: Optional[int] = None,
             datatype: Datatype = BYTE):
        """Record a sequential read into *dest* (coroutine); data lands at
        fetch time."""
        n = yield from self.read_at(self._position, dest, count, datatype)
        self._position += n
        return n

    def read_at(self, offset: int, dest: Buffer, count: Optional[int] = None,
                datatype: Datatype = BYTE):
        """Record a read at an explicit offset into *dest* (coroutine)."""
        if self._closed or self.mode != TCIO_RDONLY:
            self._check_open(reading=True)
        if (
            type(dest) is memoryview
            and dest.format == "B"
            and dest.ndim == 1
            and dest.c_contiguous
            and not dest.readonly
        ):
            view = dest  # already the flat byte view: no re-wrap
        else:
            view = _as_dest(dest)
        if offset < 0:
            raise TcioError(f"negative file offset {offset}")
        nbytes = len(view)
        if count is not None:
            want = count * datatype.size
            if want > nbytes:
                raise TcioError(f"read target of {nbytes} bytes < {want} requested")
            if want < nbytes:
                view = view[:want]  # the log keeps exactly the bytes to fill
                nbytes = want
        if nbytes == 0:
            return 0
        readlog = self.readlog
        if not readlog.record(view, offset, nbytes):
            # "...either the file domain of cached reads exceeds the size
            # of the level-1 buffer, or the application explicitly requests"
            yield from self.fetch()
            readlog.record(view, offset, nbytes)
        calls, moved = self._calls, self._bytes
        calls.count += 1
        calls.total += 1
        moved.count += nbytes
        moved.total += nbytes
        if not self.config.lazy_reads:
            yield from self.fetch()
        return nbytes

    def read_now(self, offset: int, nbytes: int):
        """Convenience: read + immediate fetch, returning the bytes
        (coroutine)."""
        out = bytearray(nbytes)
        yield from self.read_at(offset, out, nbytes, BYTE)
        yield from self.fetch()
        return bytes(out)

    def fetch(self):
        """tcio_fetch: satisfy every recorded read (coroutine)."""
        self._check_open(reading=True)
        log = self.readlog
        if log.empty:
            return
        self.stats.inc("fetches")
        with self._tracer.span("tcio.fetch", requests=len(log.offsets)):
            yield from self._fetch_pending(*log.drain())

    def _fetch_pending(self, bases: list[memoryview], which: array, at: array,
                       offsets: array, lengths: array):
        # Group the requested byte ranges by global segment. A read inside
        # one segment (the common case) is equations (1)-(3) in integers;
        # only one that straddles a boundary takes the subdivision walk,
        # each piece landing that much further into its base.
        by_segment: dict[int, _Requests] = defaultdict(
            lambda: (array("q"), array("q"), array("q"), array("q"))
        )
        seg_size = self.mapping.segment_size
        for base, start, offset, length in zip(which, at, offsets, lengths):
            gseg = offset // seg_size
            disp = offset - gseg * seg_size
            if disp + length <= seg_size:
                disps, takes, to_base, to_at = by_segment[gseg]
                disps.append(disp)
                takes.append(length)
                to_base.append(base)
                to_at.append(start)
                continue
            for gseg, disp, take in self.mapping.locate(offset, length):
                disps, takes, to_base, to_at = by_segment[gseg]
                disps.append(disp)
                takes.append(take)
                to_base.append(base)
                to_at.append(start)
                start += take
        # Only the grouped columns stay alive while the segments are served.
        del which, at, offsets, lengths
        # Service order matters: if every rank walked segments in file
        # order, the whole job would convoy behind one loader per segment.
        # Each rank serves the segments it owns first (it is that data's
        # natural I/O delegator), then the rest rotated by rank, and load
        # triggering runs as a first pass that skips segments some other
        # rank is already loading — so distinct ranks drive distinct
        # storage reads concurrently.
        rank = self.env.rank
        segs = sorted(by_segment)

        def service_key(g: int) -> tuple[int, int]:
            owned = 0 if self.mapping.owner_of_segment(g) == rank else 1
            return (owned, (g + rank) % max(1, len(segs)))

        order = sorted(segs, key=service_key)
        d = self.directory
        raw_by_seg: dict[int, bytes] = {}
        for gseg in order:  # pass 1: load the segments this rank owns
            if (
                self.mapping.owner_of_segment(gseg) == rank
                and gseg not in d.loaded
                and gseg not in d.dirty
                and gseg not in d.loading
            ):
                raw = yield from self._ensure_segment(gseg)
                if raw is not None:
                    raw_by_seg[gseg] = raw
        for gseg in order:  # pass 2: serve every request
            yield from self._fetch_segment(
                gseg, bases, by_segment[gseg], raw_by_seg.get(gseg)
            )

    def _ensure_segment(self, gseg: int):
        """Make sure *gseg* is resident in level 2 (coroutine)."""
        return self.level2.ensure_loaded(
            gseg,
            lambda ext: self._pfs_read("tcio.segment_load", ext.start, ext.length),
        )

    def _fetch_segment(self, gseg: int, bases: list[memoryview], requests: _Requests,
                       raw: Optional[bytes] = None):
        disps, lengths, to_base, to_at = requests
        if raw is None:
            raw = yield from self._ensure_segment(gseg)
        if raw is not None:
            # This rank performed the load: serve straight from the bytes
            # (works for degraded segments too — the loader has the data).
            payload = memoryview(gather(memoryview(raw), 0, disps, lengths))
        else:
            payload = memoryview((yield from self._pull(gseg, disps, lengths)))
        pos = 0  # land in order, so where destinations overlap the later wins
        for base, start, length in zip(to_base, to_at, lengths):
            bases[base][start : start + length] = payload[pos : pos + length]
            pos += length
        self._charge_memcpy(pos)

    # ------------------------------------------------------------------
    # flush / close (collective)
    # ------------------------------------------------------------------
    def flush(self):
        """tcio_flush: collective level-1 drain (coroutine; "invokes
        MPI_Barrier").

        With ``journal="epoch"`` every flush is also a durability point:
        the drained data is journaled, committed, and written back in
        place as one epoch of the two-phase protocol.
        """
        self._check_open()
        with self._tracer.span("tcio.flush"):
            if self.mode == TCIO_WRONLY:
                yield from self._write_point(final=False)
            else:
                yield from collectives.barrier(self.comm)

    def close(self):
        """tcio_close: synchronize, then level-2 -> file system (coroutine).

        After the final barrier no peer can reach this rank's level-2
        slice any more, so its RMA window is freed together with the
        simulated level-1 and level-2 allocations (``abort()`` frees only
        the allocations: a peer's late flush may still target the window).
        """
        self._check_open()
        with self._tracer.span("tcio.close", file=self.name):
            if self.mode == TCIO_WRONLY:
                yield from self._write_point(final=True)
            else:
                if not self.readlog.empty:
                    yield from self.fetch()
                yield from collectives.barrier(self.comm)
            self.level2.window.free()
            self._release()

    def _write_point(self, final: bool):
        """The collective point, rerun over the survivors when FT is armed;
        a non-FT handle propagates ``RankUnreachable`` (the job aborts)."""
        if self._survive is None:
            return self._collective_point(final)
        return self._survive.collective_point(final)

    def ft_join_recovery(self):
        """Join a pending survivor recovery, if any (collective coroutine).

        Service loops learn of a member's death *outside* any handle call
        — an interrupt at an idle receive, or a request arriving from an
        adopted client. The recovery round itself is collective over the
        survivors, so such a rank must still rendezvous with the peers
        already recovering inside a guarded deposit or collective point;
        calling this does exactly that. No-op when FT is off or every
        member of the handle communicator is alive.
        """
        if self._survive is not None:
            yield from self._survive.join()

    def _collective_point(self, final: bool):
        """The write side of ``flush`` (``final=False``) and ``close``
        (``final=True``), one sequence (coroutine).

        Drain level 1 and the node staging buffer, barrier ("issues
        MPI_barrier to synchronize among processes before outputting data
        from the level-2 buffers to file system"). A journal-off flush
        stops there. Otherwise agree on eof and write every owned dirty
        segment back in place, marking it ``flushed`` as it lands and
        dropping its provenance rows (fsck counts dirty-but-unflushed
        segments as lost after a journal-off crash). With
        ``journal="epoch"`` the write-back is phase 2 of an epoch: phase 1
        (``EpochJournal.write_ahead``) has every owner journal its segments
        and rank 0 append the commit mark first.
        """
        yield from self._flush_level1()
        if self._nodedrain is not None:
            yield from self._nodedrain.drain()
        yield from collectives.barrier(self.comm)
        journal = self._epoch
        if journal is None and not final:
            return
        d = self.directory
        eof = yield from collectives.allreduce(self.comm, d.eof, max)
        d.eof = eof
        todo = self._owned_unflushed()
        epoch = 0  # stays 0 when there is nothing to journal
        if journal is not None:
            total = yield from collectives.allreduce(self.comm, len(todo), lambda a, b: a + b)
            if total:
                epoch = d.committed_epoch + 1
        span = (
            self._tracer.span("tcio.flush_epoch", epoch=epoch, segments=len(todo))
            if epoch
            else NULL_SPAN
        )
        with span:
            pieces_of = (self._segment_pieces(g, eof) for g in todo)
            if epoch:  # once for both phases; journal-off, one at a time
                pieces_of = list(pieces_of)
                yield from journal.write_ahead(epoch, eof, zip(todo, pieces_of))
            for gseg, pieces in zip(todo, pieces_of):
                if pieces is not None:
                    with self._tracer.span("tcio.writeback", segment=gseg):
                        for offset, data in pieces:
                            yield from self._pfs_write("tcio.writeback", offset, data)
                    self.stats.inc("segment_writebacks")
                d.note_flushed(gseg)
            if epoch:
                d.committed_epoch = epoch
            yield from collectives.barrier(self.comm)

    def _segment_pieces(self, gseg: int, eof: int) -> Optional[list[tuple[int, bytes]]]:
        """What one owned dirty segment contributes to the file, as
        ``[(file offset, bytes), ...]``: its slot clamped to eof, minus the
        byte ranges some rank already wrote directly (published fallback
        flushes — the slot holds zeros there, and a whole-segment write
        would clobber their data). None when the segment starts at or past
        eof.
        """
        extent = self.mapping.segment_extent(gseg)
        limit = min(extent.stop, eof) - extent.start
        if limit <= 0:
            return None
        slot = self.level2.local_slot(gseg)
        pieces: list[tuple[int, bytes]] = []
        pos = 0
        for start, stop in merge_ranges(
            (max(0, min(start, limit)), max(0, min(stop, limit)))
            for start, stop in self.directory.fallback_ranges.get(gseg, ())
        ):
            if start > pos:
                pieces.append((extent.start + pos, slot[pos:start].tobytes()))
            pos = stop
        if pos < limit:
            pieces.append((extent.start + pos, slot[pos:limit].tobytes()))
        return pieces

    # ------------------------------------------------------------------
    # epoch-handoff observability (the I/O-server write-behind loop)
    # ------------------------------------------------------------------
    @property
    def committed_epoch(self) -> int:
        """The last durably committed journal epoch (0 before the first).

        With ``journal="epoch"`` every collective flush hands one epoch
        of buffered data to the write-behind path; delegate servers
        (``repro.ioserver``) report this as the durability frontier their
        clients' acknowledged-but-unflushed writes are waiting on.
        """
        return self.directory.committed_epoch

    @property
    def pending_write_behind(self) -> int:
        """Owned dirty segments not yet flushed to the file system.

        The backlog the next epoch's write-behind must move: what a
        delegate server loses to a crash *minus* whatever the journal can
        replay. Zero right after a flush/close.
        """
        return len(self._owned_unflushed())

    def _owned_unflushed(self) -> list[int]:
        flushed = self.directory.flushed
        return [g for g in self.level2.owned_dirty_segments() if g not in flushed]

    def abort(self) -> None:
        """Tear the handle down locally (no collectives; exception path).

        ``close()`` is collective: calling it while unwinding an exception
        on one rank would deadlock the others, so a failing body calls
        ``abort()`` instead — simulated memory is released and the handle
        marked closed without any communication.
        """
        self._release()

    def _release(self) -> None:
        memory = self.env.world.memory
        for alloc in self._allocs:
            memory.free(alloc)
        self._allocs = []
        self._closed = True
        # Each optional stage points back at the handle; a closed handle
        # needs none of them, and dropping them leaves no cycle to collect.
        self._degrade = self._survive = self._epoch = self._nodedrain = None
        self._deposit = self._pull = None

    # ------------------------------------------------------------------
    def _pfs_write(self, what: str, offset: int, payload: bytes, file=None):
        """One retried PFS write on this rank's behalf (coroutine), into
        *file* (a journal) or the data file."""
        file = self.pfs_file if file is None else file
        return pfs_write(self.env.world, self.client, self.env.rank, file, what, offset, payload)

    def _pfs_read(self, what: str, offset: int, nbytes: int):
        """One retried PFS read of the data file (coroutine -> bytes)."""
        world, rank = self.env.world, self.env.rank
        return pfs_read(world, self.client, rank, self.pfs_file, what, offset, nbytes)

    def _charge_memcpy(self, nbytes: int) -> None:
        if nbytes > 0:
            self._charge(nbytes / self._memcpy_bandwidth)

    def _check_open(self, *, writing: bool = False, reading: bool = False) -> None:
        if self._closed:
            raise TcioError("TCIO handle is closed")
        if writing and self.mode != TCIO_WRONLY:
            raise TcioError("handle not opened for writing")
        if reading and self.mode != TCIO_RDONLY:
            raise TcioError("handle not opened for reading")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TcioFile {self.name!r} rank={self.env.rank} mode={self.mode}>"


# ----------------------------------------------------------------------
# Program 1's free-function spelling of the API
# ----------------------------------------------------------------------


def tcio_open(env: RankEnv, fname: str, mode: int,
              config: Optional[TcioConfig] = None):
    """Collective open (coroutine); mode is TCIO_RDONLY or TCIO_WRONLY."""
    return (yield from TcioFile.open(env, fname, mode, config))


def tcio_write(fh: TcioFile, data: Buffer, count: Optional[int] = None,
               datatype: Datatype = BYTE):
    """Program 1: sequential write at the current position (coroutine)."""
    return (yield from fh.write(data, count, datatype))


def tcio_write_at(fh: TcioFile, offset: int, data: Buffer,
                  count: Optional[int] = None, datatype: Datatype = BYTE):
    """Program 1: write at an explicit offset (coroutine)."""
    return (yield from fh.write_at(offset, data, count, datatype))


def tcio_read(fh: TcioFile, dest: Buffer, count: Optional[int] = None,
              datatype: Datatype = BYTE):
    """Program 1: record a sequential lazy read into *dest* (coroutine)."""
    return (yield from fh.read(dest, count, datatype))


def tcio_read_at(fh: TcioFile, offset: int, dest: Buffer,
                 count: Optional[int] = None, datatype: Datatype = BYTE):
    """Program 1: record a lazy read at an explicit offset (coroutine)."""
    return (yield from fh.read_at(offset, dest, count, datatype))


def tcio_seek(fh: TcioFile, offset: int, whence: int = SEEK_SET) -> int:
    """Program 1: move the file position."""
    return fh.seek(offset, whence)


def tcio_flush(fh: TcioFile):
    """Program 1: collective level-1 -> level-2 drain (coroutine)."""
    yield from fh.flush()


def tcio_fetch(fh: TcioFile):
    """Program 1: load all recorded lazy reads (coroutine)."""
    yield from fh.fetch()


def tcio_close(fh: TcioFile):
    """Program 1: collective close (coroutine; level-2 -> file system)."""
    yield from fh.close()
