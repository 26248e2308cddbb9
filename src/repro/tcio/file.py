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

import warnings
from collections import defaultdict
from typing import Optional, Union

import numpy as np

from repro.faults.plan import RMA_FAIL_DELAY
from repro.faults.retry import pfs_read, pfs_write
from repro.memsim.memory import Allocation
from repro.obs.spans import NULL_SPAN, NULL_TRACER
from repro.sim.api import run_coroutine
from repro.sim.engine import active_process
from repro.simmpi import collectives
from repro.simmpi.datatypes import BYTE, Datatype
from repro.simmpi.mpi import RankEnv
from repro.tcio.level1 import Level1Buffer, ReadLog
from repro.tcio.level2 import Level2Buffer, SegmentDirectory
from repro.tcio.mapping import SegmentMapping
from repro.tcio.params import TcioConfig
from repro.tcio.stats import TcioStats
from repro.topo import (
    NodeTopology,
    StagingBuffer,
    charge_staging_copy,
    coalesce_blocks,
    split_by_node,
)
from repro.util.errors import (
    RankUnreachable,
    RetryBudgetExceeded,
    RmaTransientError,
    TcioError,
)
from repro.util.intervals import merge_ranges

TCIO_RDONLY = 0x1
TCIO_WRONLY = 0x2

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2

Buffer = Union[bytes, bytearray, memoryview, np.ndarray]
#: One segment's share of a fetch: parallel (disps, lengths, dests) lists.
_Requests = tuple[list[int], list[int], list[memoryview]]


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
        self._hub = getattr(env.world, "trace", None)
        self._tracer = self._hub.tracer if self._hub is not None else NULL_TRACER
        self._plan = getattr(env.world, "faults", None)
        #: Survive-and-complete mode (``config.ft``): rank failures at
        #: collective points shrink the communicator and complete the
        #: flush over the survivors instead of aborting.
        self._ft = bool(config.ft) and mode == TCIO_WRONLY
        #: This rank's own deposits of the current (uncommitted) epoch,
        #: ``{gseg: [(disp, payload), ...]}`` — kept so a survivor can
        #: re-deposit them after a dead segment owner's volatile slot is
        #: re-partitioned away. Cleared once the epoch commits.
        self._shadow: dict[int, list[tuple[int, bytes]]] = {}
        #: Segment owners whose RMA target stayed unreachable past the
        #: retry budget; later flushes to them skip straight to the
        #: independent-write fallback instead of burning retries again.
        self._unreachable_owners: set[int] = set()
        #: Node-aggregation state (``config.aggregation == "node"``); all
        #: None/False on the flat path or when the job spans one node.
        self._topo: Optional[NodeTopology] = None
        self._node_comm = None
        self._staging: Optional[StagingBuffer] = None
        self._leader_world = -1
        self._staging_degraded = False

        with self._tracer.span("tcio.open", file=name):
            pfs = env.pfs
            if mode == TCIO_WRONLY:
                self.pfs_file = pfs.create(name)
                if self.pfs_file.size:
                    # Write handles have fresh-file semantics: dirty segments
                    # are written back whole, so stale bytes must not survive.
                    self.pfs_file.truncate(0)
                if config.journal == "epoch":
                    # Same fresh-file semantics for the journal: records
                    # from an earlier open of this name must not replay.
                    from repro.crash.journal import commit_name, rank_journal

                    journal = pfs.create(rank_journal(name, env.rank))
                    if journal.size:
                        journal.truncate(0)
                    if self.comm.rank == 0:
                        commit = pfs.create(commit_name(name))
                        if commit.size:
                            commit.truncate(0)
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
            self._journal_pos = 0  # append offset into this rank's journal

            # Simulated memory: one level-1 buffer + this rank's level-2 share.
            memory = env.world.memory
            self._level2_alloc = memory.allocate(
                env.rank,
                config.segments_per_process * segment_size,
                "tcio.level2",
            )
            self._allocs: list[Allocation] = [
                memory.allocate(env.rank, segment_size, "tcio.level1"),
                self._level2_alloc,
            ]

            self.level1 = Level1Buffer(segment_size)
            self.readlog = ReadLog(segment_size * config.read_window_segments)
            self.level2 = yield from self._create_level2(
                self.comm, self.mapping, config.segments_per_process
            )
            if (
                config.aggregation == "node"
                and mode == TCIO_WRONLY
                and self.comm.size > 1
            ):
                yield from self._setup_staging(segment_size, gen)
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

    def _setup_staging(self, segment_size: int, gen: int):
        """Arm the node-aggregation drain path (coroutine;
        ``aggregation="node"``).

        One staging buffer per node, published through ``world.shared``
        and keyed by the open generation; the node's leader (lowest comm
        rank on the node) backs it with simulated memory and drains it at
        every collective point. A single-node job keeps the flat path —
        every flush is intra-node already.
        """
        topo = NodeTopology.from_comm(self.comm)
        if topo.n_nodes < 2:
            return
        self._topo = topo
        self._node_comm = yield from split_by_node(self.comm, topo)
        my_node = topo.node_of_rank(self.comm.rank)
        self._leader_world = self.comm.world_rank(topo.leader_of(my_node))
        capacity = self.config.staging_segments * segment_size
        self._staging = self.env.world.shared.setdefault(
            ("tcio-stage", self.name, gen, my_node),
            StagingBuffer(my_node, self._leader_world, capacity=capacity),
        )
        if self.env.rank == self._leader_world:
            self._allocs.append(
                self.env.world.memory.allocate(
                    self.env.rank, capacity, "topo.staging"
                )
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
        if self.level1.empty:
            self.level1.aligned_segment = None
            return
        gseg, blocks = self.level1.take()
        # Crash points bracket the deposit: before it, this rank's level-1
        # data dies with the rank; after it, the data sits in the owner's
        # volatile level-2 memory (journaling decides whether it survives).
        yield from self._crash_point("pre-deposit")
        while True:
            owner = self.mapping.owner_of_segment(gseg)
            try:
                yield from self._deposit(gseg, owner, blocks)
                break
            except RankUnreachable:
                if not self._ft:
                    raise
                # The owner (or a collective peer) died under this deposit:
                # shrink, re-partition, and retry against the new owner.
                yield from self._ft_recover()
        yield from self._crash_point("post-deposit")

    def _deposit(self, gseg: int, owner: int, blocks: list):
        if self._ft:
            self._shadow.setdefault(gseg, []).extend(
                (disp, payload) for disp, _length, payload in blocks
            )
        if (
            self._staging is not None
            and not self._staging_degraded
            and owner != self.comm.rank
            and owner not in self._unreachable_owners
            and not self._topo.same_node(owner, self.comm.rank)
        ):
            staged = yield from self._try_stage(gseg, owner, blocks)
            if staged:
                return
        if owner in self._unreachable_owners:
            yield from self._fallback_flush(gseg, blocks)
            return
        try:
            yield from self.level2.push_blocks(gseg, blocks)
        except RetryBudgetExceeded:
            # Graceful degradation: the segment owner is unreachable past
            # the retry budget, so this rank's data goes to the file
            # system directly (independent-write fallback) — the
            # collective never wedges on a dead peer.
            self._unreachable_owners.add(owner)
            yield from self._fallback_flush(gseg, blocks)

    def _crash_point(self, step: str):
        """Named crash-injection point (one attribute test when unfaulted).

        Coroutine: delivering a crash needs the victim parked, so the
        world's crash hook may block the caller momentarily.
        """
        if self._plan is not None:
            yield from run_coroutine(self.env.world.crash_point(step, self.env.rank))

    def _try_stage(self, gseg: int, owner: int, blocks: list):
        """Deposit one drained level-1 buffer into the node staging buffer.

        Returns False — and the caller takes the flat path — when the
        deposit would overflow the staging capacity, or when the node
        leader stays unreachable past the retry budget (after which the
        whole handle degrades to flat: protocol agreement with the leader
        is gone, burning more retries buys nothing).
        """
        stage = self._staging
        nbytes = sum(length for _, length, _ in blocks)
        if stage.would_overflow(nbytes):
            self._count("topo.staging.overflow", nbytes)
            return False
        self.level2._slot_base(gseg)  # capacity check before committing
        if self._plan is not None and self.env.rank != self._leader_world:
            # A deposit crosses node memory shared with the leader; treat
            # it like an RMA toward the leader for fault purposes.
            def attempt(_attempt: int) -> None:
                if self._plan.rma_fault(
                    "staging", self.env.rank, self._leader_world
                ):
                    active_process().charge(RMA_FAIL_DELAY)
                    raise RmaTransientError(
                        "staging", self.env.rank, self._leader_world
                    )

            try:
                yield from self._plan.retry_call(
                    attempt,
                    retry_on=RmaTransientError,
                    what=f"topo.deposit(seg={gseg})",
                )
            except RetryBudgetExceeded:
                self._staging_degraded = True
                self._plan.note_fallback(
                    "topo.deposit", rank=self.env.rank,
                    leader=self._leader_world,
                )
                return False
        yield from charge_staging_copy(self.env.world, self.env.rank, nbytes)
        stage.deposit(
            owner,
            [(gseg, disp, payload) for disp, _length, payload in blocks],
            nbytes,
        )
        self._count("topo.deposit.bytes", nbytes)
        self._count("topo.deposit.blocks", len(blocks))
        if self._hub is not None:
            self._hub.registry.histogram("topo.staging.occupancy").observe(
                stage.used
            )
        return True

    def _node_drain(self):
        """Collective staging drain: the leader ships coalesced deposits.

        Runs at every collective point (flush/close) after the local
        level-1 drain. A node barrier makes every member's deposits
        visible; then the leader issues one merged indexed RMA sequence
        per remote owner — or falls back to direct PFS writes for owners
        that stay unreachable past the retry budget.
        """
        if self._staging is None:
            return
        yield from collectives.barrier(self._node_comm)
        if self._node_comm.rank != 0:
            return
        stage = self._staging
        for owner in stage.keys():
            pieces = stage.drain(owner)
            if not pieces:
                continue
            nbytes = sum(len(payload) for _, _, payload in pieces)
            if owner in self._unreachable_owners:
                yield from self._drain_fallback(owner, pieces)
                continue
            # Leader-side pickup: reading the deposits out of node memory
            # to build the merged message is a second memcpy pass.
            yield from charge_staging_copy(self.env.world, self.env.rank, nbytes)
            win_blocks = coalesce_blocks(
                [
                    (self.level2._slot_base(g) + disp, payload)
                    for g, disp, payload in pieces
                ]
            )
            try:
                yield from self.level2.push_window_blocks(owner, win_blocks)
            except RetryBudgetExceeded:
                self._unreachable_owners.add(owner)
                if self._plan is not None:
                    self._plan.note_fallback(
                        "topo.drain", owner=owner, rank=self.env.rank
                    )
                yield from self._drain_fallback(owner, pieces)
                continue
            self.directory.dirty.update({g for g, _, _ in pieces})
            self._count("topo.drain.messages", 1)
            self._count("topo.drain.bytes", nbytes)

    def _drain_fallback(self, owner: int, pieces: list):
        """Write one owner's staged deposits straight to the PFS.

        Reuses the flat fallback machinery segment by segment, so the
        written ranges are published and the (unreachable) owner's
        writeback skips them.
        """
        by_seg: dict[int, list[tuple[int, int, bytes]]] = {}
        for g, disp, payload in pieces:
            by_seg.setdefault(g, []).append((disp, len(payload), payload))
        for g in sorted(by_seg):
            yield from self._fallback_flush(g, by_seg[g])

    def _count(self, name: str, amount: float = 0.0) -> None:
        if self._hub is not None:
            self._hub.count(name, amount)

    def _fallback_flush(self, gseg: int, blocks: list):
        """Write one drained level-1 buffer straight to the PFS (coroutine).

        The written byte ranges are published in the shared directory so
        the segment owner's whole-segment writeback at close skips them
        (otherwise it would overwrite these bytes with slot zeros).
        """
        seg_start = self.mapping.segment_extent(gseg).start
        ranges = self.directory.fallback_ranges.setdefault(gseg, [])
        nbytes = sum(length for _, length, _ in blocks)
        self._warn_data_at_risk(gseg, blocks)
        with self._tracer.span(
            "tcio.fallback_flush", segment=gseg, bytes=nbytes, rank=self.env.rank
        ):
            for disp, length, payload in blocks:
                yield from pfs_write(
                    self.env.world, self.client, self.env.rank, self.pfs_file,
                    "tcio.fallback_flush", seg_start + disp, payload,
                )
                ranges.append((disp, disp + length))
        if self._plan is not None:
            self._plan.note_fallback("tcio.flush", segment=gseg, rank=self.env.rank)
        self.stats.inc("flushed_bytes", nbytes)

    def _warn_data_at_risk(self, gseg: int, blocks: list) -> None:
        """Detect the silent-loss hazard of degraded (fallback) flushes.

        The ranges this fallback writes directly become skip ranges for
        the owner's whole-segment writeback — including any bytes *other*
        ranks already deposited into the (unreachable) owner's slot there.
        Those deposits would silently never reach the file; count and warn
        so the loss is at least detected and attributable.
        """
        at_risk = 0
        victims: set[int] = set()
        for disp, length, src in self.directory.deposited.get(gseg, ()):
            if src == self.env.rank:
                continue
            for bdisp, blen, _payload in blocks:
                lo, hi = max(disp, bdisp), min(disp + length, bdisp + blen)
                if hi > lo:
                    at_risk += hi - lo
                    victims.add(src)
        if at_risk:
            self._count("faults.data_at_risk", at_risk)
            # On a shared PFS the alarm must say WHOSE data is at risk:
            # several tenants' fallbacks can fire in one run and an
            # unattributed warning is unactionable.
            job = self.env.world.job
            jtag = f"job {job}: " if job else ""
            warnings.warn(
                f"{jtag}tcio fallback flush of segment {gseg} overlaps "
                f"{at_risk} bytes deposited by rank(s) {sorted(victims)} "
                "into the unreachable owner's level-2 slot; those deposits "
                "will not be written back",
                RuntimeWarning,
                stacklevel=3,
            )
            if self._plan is not None:
                detail = dict(segment=gseg, bytes=at_risk, rank=self.env.rank)
                if job is not None:
                    detail["job"] = job
                self._plan.record("tcio.data_at_risk", **detail)

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
        dests, offsets, lengths = self.readlog.drain()
        if not dests:
            return
        self.stats.inc("fetches")
        with self._tracer.span("tcio.fetch", requests=len(dests)):
            yield from self._fetch_pending(dests, offsets, lengths)

    def _fetch_pending(
        self, dests: list[memoryview], offsets: list[int], lengths: list[int]
    ):
        # Group the requested byte ranges by global segment. A read inside
        # one segment (the common case) is equations (1)-(3) in integers;
        # only one that straddles a boundary takes the subdivision walk.
        by_segment: dict[int, _Requests] = defaultdict(lambda: ([], [], []))
        seg_size = self.mapping.segment_size
        for dest, offset, length in zip(dests, offsets, lengths):
            gseg = offset // seg_size
            disp = offset - gseg * seg_size
            if disp + length <= seg_size:
                disps, takes, views = by_segment[gseg]
                disps.append(disp)
                takes.append(length)
                views.append(dest)
                continue
            covered = 0
            for gseg, disp, take in self.mapping.locate(offset, length):
                disps, takes, views = by_segment[gseg]
                disps.append(disp)
                takes.append(take)
                views.append(dest[covered : covered + take])
                covered += take
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
                gseg, by_segment[gseg], raw_by_seg.get(gseg)
            )

    def _ensure_segment(self, gseg: int):
        """Make sure *gseg* is resident in level 2 (coroutine)."""
        return self.level2.ensure_loaded(
            gseg,
            lambda ext: pfs_read(
                self.env.world, self.client, self.env.rank, self.pfs_file,
                "tcio.segment_load", ext.start, ext.length,
            ),
        )

    def _fetch_segment(
        self, gseg: int, requests: _Requests, raw: Optional[bytes] = None
    ):
        disps, lengths, dests = requests
        if raw is None and gseg not in self.directory.direct:
            raw = yield from self._ensure_segment(gseg)
        if raw is not None:
            # This rank performed the load: serve straight from the bytes
            # (works for degraded segments too — the loader has the data).
            for disp, length, dest in zip(disps, lengths, dests):
                dest[:] = raw[disp : disp + length]
            self._charge_memcpy(sum(lengths))
            return
        if gseg in self.directory.direct:
            # Degraded segment: its owner was unreachable, nothing is
            # cached in level 2 — read straight from the file system.
            yield from self._fallback_fetch(gseg, requests)
            return
        try:
            blocks = yield from self.level2.pull_blocks(
                gseg, list(zip(disps, lengths))
            )
        except RetryBudgetExceeded:
            self.directory.direct.add(gseg)
            if self._plan is not None:
                self._plan.note_fallback(
                    "tcio.fetch", segment=gseg, rank=self.env.rank
                )
            yield from self._fallback_fetch(gseg, requests)
            return
        for length, dest, (_got_disp, data) in zip(lengths, dests, blocks):
            dest[:] = data[:length]
        self._charge_memcpy(sum(lengths))

    def _fallback_fetch(self, gseg: int, requests: _Requests):
        """Serve degraded-segment reads directly from the PFS (coroutine)."""
        seg_start = self.mapping.segment_extent(gseg).start
        nbytes = sum(requests[1])
        with self._tracer.span(
            "tcio.fallback_fetch", segment=gseg, bytes=nbytes, rank=self.env.rank
        ):
            for disp, length, dest in zip(*requests):
                dest[:] = yield from pfs_read(
                    self.env.world, self.client, self.env.rank, self.pfs_file,
                    "tcio.fallback_fetch", seg_start + disp, length,
                )
        self.stats.inc("fetched_bytes", nbytes)
        self._charge_memcpy(nbytes)

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
                yield from self._ft_guard(final=False)
            else:
                yield from collectives.barrier(self.comm)

    def close(self):
        """tcio_close: synchronize, then level-2 -> file system (coroutine)."""
        self._check_open()
        with self._tracer.span("tcio.close", file=self.name):
            if self.mode == TCIO_WRONLY:
                yield from self._ft_guard(final=True)
            else:
                if not self.readlog.empty:
                    yield from self.fetch()
                yield from collectives.barrier(self.comm)
            self._release()

    def _collective_point(self, final: bool):
        """The write side of ``flush`` (``final=False``) and ``close``
        (``final=True``), one sequence (coroutine).

        Drain level 1 and the node staging buffer, barrier ("issues
        MPI_barrier to synchronize among processes before outputting data
        from the level-2 buffers to file system"). A journal-off flush
        stops there. Otherwise agree on eof and write every owned dirty
        segment back in place, marking it ``flushed`` as it lands (fsck
        counts dirty-but-unflushed segments as lost after a journal-off
        crash). With ``journal="epoch"`` the write-back is phase 2 of an
        epoch: first every owner appends a write-ahead record per segment
        to its journal file and, after a barrier proving every record
        durable, rank 0 appends the commit mark — only then does the epoch
        count, and ``repro.crash.recover`` can replay it after a crash
        anywhere (``docs/faults.md``).
        """
        from repro.crash.journal import commit_name, pack_commit, rank_journal

        yield from self._flush_level1()
        yield from self._node_drain()
        yield from collectives.barrier(self.comm)
        journaled = self.config.journal == "epoch"
        if not (journaled or final):
            return
        d = self.directory
        eof = yield from collectives.allreduce(self.comm, d.eof, max)
        d.eof = eof
        todo = self._owned_unflushed()
        epoch = 0  # stays 0 when there is nothing to journal
        if journaled:
            total = yield from collectives.allreduce(
                self.comm, len(todo), lambda a, b: a + b
            )
            if total:
                epoch = d.committed_epoch + 1
        span = (
            self._tracer.span("tcio.flush_epoch", epoch=epoch, segments=len(todo))
            if epoch
            else NULL_SPAN
        )
        with span:
            if epoch:
                journal = self.env.pfs.create(rank_journal(self.name, self.env.rank))
                for gseg in todo:
                    yield from self._journal_segment(journal, epoch, gseg, eof)
                yield from collectives.barrier(self.comm)
                yield from self._crash_point("pre-commit")
                # This barrier is what makes "pre-commit" mean what it says:
                # no rank may write the commit mark until every rank survived
                # its pre-commit crash point (otherwise resume order could let
                # rank 0 commit before the victim even reaches the point).
                yield from collectives.barrier(self.comm)
                if self.comm.rank == 0:
                    commit = self.env.pfs.create(commit_name(self.name))
                    yield from pfs_write(
                        self.env.world, self.client, self.env.rank, commit,
                        "tcio.journal.commit", commit.size, pack_commit(epoch, eof),
                    )
                    # Journal metrics live only under dotted registry names:
                    # the legacy as_dict() key set is frozen by compat tests.
                    self.stats.registry.counter("tcio.journal.commits").inc()
                    self._count("crash.journal.commits", 1)
                yield from collectives.barrier(self.comm)
                yield from self._crash_point("post-commit")
            for gseg in todo:
                yield from self._write_back_segment(gseg, eof)
                d.flushed.add(gseg)
            if epoch:
                d.committed_epoch = epoch
            yield from collectives.barrier(self.comm)
        # Everything deposited so far is durable (committed + written
        # back): survivors will never need to re-deposit it.
        self._shadow.clear()

    def _write_back_segment(self, gseg: int, eof: int):
        """In-place PFS write of one owned dirty segment (clamped to eof;
        coroutine)."""
        extent = self.mapping.segment_extent(gseg)
        stop = min(extent.stop, eof)
        if stop <= extent.start:
            return
        slot = self.level2.local_slot(gseg)
        with self._tracer.span("tcio.writeback", segment=gseg):
            # Skip byte ranges some rank already wrote directly
            # (fallback flushes): the slot holds zeros there, and
            # a whole-segment write would clobber their data.
            for lo, hi in self._writeback_pieces(gseg, stop - extent.start):
                yield from pfs_write(
                    self.env.world, self.client, self.env.rank, self.pfs_file,
                    "tcio.writeback", extent.start + lo, slot[lo:hi].tobytes(),
                )
        self.stats.inc("segment_writebacks")

    def _journal_segment(self, journal, epoch: int, gseg: int, eof: int):
        """Append one segment's write-ahead record to this rank's journal
        (coroutine).

        The record goes out as two PFS writes (header+extents, then the
        checksummed payload) with a crash point between them, so a
        mid-flush crash produces exactly the torn-record artifact the
        recovery path must tolerate.
        """
        from repro.crash.journal import pack_record_head

        extent = self.mapping.segment_extent(gseg)
        stop = min(extent.stop, eof)
        if stop <= extent.start:
            return
        slot = self.level2.local_slot(gseg)
        pieces = self._writeback_pieces(gseg, stop - extent.start)
        extents = [(extent.start + lo, extent.start + hi) for lo, hi in pieces]
        payload = b"".join(slot[lo:hi].tobytes() for lo, hi in pieces)
        head = pack_record_head(epoch, gseg, extents, payload)
        with self._tracer.span(
            "tcio.journal_record", segment=gseg, epoch=epoch, bytes=len(payload)
        ):
            pos = self._journal_pos
            yield from pfs_write(
                self.env.world, self.client, self.env.rank, journal,
                "tcio.journal.head", pos, head,
            )
            yield from self._crash_point("mid-flush")
            yield from pfs_write(
                self.env.world, self.client, self.env.rank, journal,
                "tcio.journal.payload", pos + len(head), payload,
            )
        self._journal_pos = pos + len(head) + len(payload)
        self.stats.registry.counter("tcio.journal.records").inc()
        self.stats.registry.counter("tcio.journal.bytes").inc(len(head) + len(payload))
        self._count("crash.journal.bytes", len(head) + len(payload))

    # ------------------------------------------------------------------
    # survive-and-complete fault tolerance (``config.ft``)
    # ------------------------------------------------------------------
    def _ft_guard(self, final: bool):
        """Run the collective point, surviving rank failures when FT is
        armed (coroutine).

        A non-FT handle propagates :class:`RankUnreachable` unchanged (the
        job aborts). An FT handle shrinks to the survivor communicator,
        re-partitions level 2, and reruns the point — whose stages are all
        idempotent over the shared directory (re-journaled records
        supersede, re-writebacks land the same bytes).
        """
        while True:
            try:
                return (yield from self._collective_point(final))
            except RankUnreachable:
                if not self._ft:
                    raise
                yield from self._ft_recover()

    def _ft_recover(self):
        """Shrink-and-rebuild until it sticks (coroutine): a cascading
        failure during recovery itself restarts recovery on the freshly
        shrunken survivor set."""
        while True:
            try:
                yield from self._survive()
                return
            except RankUnreachable:
                continue

    def ft_join_recovery(self):
        """Join a pending survivor recovery, if any (collective coroutine).

        Service loops learn of a member's death *outside* any handle call
        — an interrupt at an idle receive, or a request arriving from an
        adopted client. The recovery round itself is collective over the
        survivors, so such a rank must still rendezvous with the peers
        already recovering inside a deposit retry or :meth:`_ft_guard`;
        calling this does exactly that. No-op when FT is off or every
        member of the handle communicator is alive.
        """
        if not self._ft:
            return
        while set(self.comm.group_world_ranks()) & self.env.world.dead_ranks:
            yield from self._ft_recover()

    def _survive(self):
        """One survive-and-complete recovery round (collective coroutine).

        ULFM-style: every survivor lands here after catching
        :class:`RankUnreachable` (write handles reach a collective point —
        flush/close/deposit — within bounded work, so nobody is left
        behind). The round

        1. shrinks the communicator to the re-numbered survivors,
        2. picks a resume epoch strictly past every journaled epoch, so
           the survivor epoch's records supersede any stale record a
           later commit mark would otherwise resurrect,
        3. replays the dead ranks' committed-but-not-written-back journal
           records into the data file (what ``crash.recover`` would do,
           but online and charged through the PFS client),
        4. rebuilds the level-2 partition over the survivors: alive old
           owners migrate their full slot images; dead-owned segments are
           rebased from the (replayed) file image and the survivors'
           shadow deposits are re-pushed; segments inside eof that no one
           ever deposited (the dead rank's level-1-only writes) are
           adopted so the next epoch keeps fsck's byte accounting
           complete,
        5. swaps the handle onto the new communicator/mapping/buffer.

        The only data lost is what existed solely in dead volatile
        memory: the dead ranks' level-1 buffers and their uncommitted
        own-slot deposits.
        """
        from repro.crash.journal import (
            commit_name,
            committed_state,
            iter_records,
            rank_journal,
        )

        d = self.directory
        world = self.env.world
        pfs = self.env.pfs
        memory = world.memory
        old_members = self.comm.group_world_ranks()
        with self._tracer.span("tcio.survive", file=self.name):
            new_comm = yield from self.comm.shrink()
            dead = tuple(r for r in old_members if r in world.dead_ranks)
            self._count("tcio.ft.survives", 1)

            # -- resume epoch + committed replay set --------------------
            commit_epoch = 0
            if pfs.exists(commit_name(self.name)):
                commit_epoch, _ = committed_state(
                    pfs.lookup(commit_name(self.name)).contents()
                )
            resume = max(d.committed_epoch, commit_epoch)
            replay = []  # committed dead-rank records never written back
            for member in old_members:
                jname = rank_journal(self.name, member)
                if not pfs.exists(jname):
                    continue
                for rec in iter_records(pfs.lookup(jname).contents()):
                    if rec.torn:
                        continue
                    resume = max(resume, rec.epoch)
                    if (
                        member in world.dead_ranks
                        and rec.epoch <= commit_epoch
                        and rec.gseg not in d.flushed
                    ):
                        replay.append((rec.epoch, jname, rec))
            d.committed_epoch = resume
            replay.sort(key=lambda row: (row[0], row[1], row[2].gseg))
            if new_comm.rank == 0:
                for _epoch, _jname, rec in replay:
                    with self._tracer.span(
                        "tcio.ft.replay", segment=rec.gseg, epoch=rec.epoch
                    ):
                        for i, (lo, _hi) in enumerate(rec.extents):
                            yield from pfs_write(
                                self.env.world, self.client, self.env.rank, self.pfs_file,
                                "tcio.ft.replay", lo, rec.piece(i),
                            )
                    self._count("tcio.ft.replayed_bytes", rec.nbytes)
            yield from collectives.barrier(new_comm)

            # -- rebuild the level-2 partition over the survivors -------
            seg = self.mapping.segment_size
            total_segments = -(-d.eof // seg) if d.eof else 0
            pending = sorted(g for g in d.dirty if g not in d.flushed)
            abandoned = [
                g
                for g in range(total_segments)
                if g not in d.dirty and g not in d.flushed
            ]
            # Preserve the aggregate capacity of the old partition: the
            # handle stays open after recovery (delegate failover keeps
            # writing), so the survivors must be able to hold every
            # segment the *full* job was provisioned for, not just the
            # eof reached so far.
            per_rank = max(
                -(-max(total_segments, 1) // new_comm.size),
                -(
                    -self.config.segments_per_process
                    * len(old_members)
                    // new_comm.size
                ),
            )
            new_mapping = SegmentMapping(seg, new_comm.size)
            new_alloc = memory.allocate(
                self.env.rank, per_rank * seg, "tcio.level2"
            )
            try:
                old_level2, old_mapping = self.level2, self.mapping
                new_level2 = yield from self._create_level2(
                    new_comm, new_mapping, per_rank
                )

                def rebase(g: int, limit: int):
                    """Fill *g*'s new slot from the file image (coroutine)."""
                    base = yield from pfs_read(
                        self.env.world, self.client, self.env.rank, self.pfs_file,
                        "tcio.ft.rebase", g * seg, limit,
                    )
                    new_level2.local_slot(g)[: len(base)] = np.frombuffer(
                        base, dtype=np.uint8
                    )

                for g in pending:
                    limit = min(seg, d.eof - g * seg)
                    if limit <= 0:
                        continue
                    old_owner_world = old_members[old_mapping.owner_of_segment(g)]
                    if old_owner_world in world.dead_ranks:
                        # Dead owner: its slot is gone. The new owner
                        # rebases from the file image (current after the
                        # committed replay above); the shadow replay below
                        # re-applies every survivor's deposits.
                        if new_mapping.owner_of_segment(g) == new_comm.rank:
                            yield from rebase(g, limit)
                    elif old_owner_world == self.env.rank:
                        # Alive owner: hand the full slot image (every
                        # rank's deposits, the dead one's included) to the
                        # segment's new owner.
                        payload = old_level2.local_slot(g)[:limit].tobytes()
                        yield from new_level2.push_blocks(g, [(0, limit, payload)])
                yield from collectives.barrier(new_comm)
                shadow_bytes = 0
                for g, blocks in sorted(self._shadow.items()):
                    if g not in d.dirty or g in d.flushed:
                        continue
                    old_owner_world = old_members[old_mapping.owner_of_segment(g)]
                    if old_owner_world not in world.dead_ranks:
                        continue
                    yield from new_level2.push_blocks(
                        g, [(disp, len(p), p) for disp, p in blocks]
                    )
                    shadow_bytes += sum(len(p) for _disp, p in blocks)
                if shadow_bytes:
                    self._count("tcio.ft.shadow_bytes", shadow_bytes)
                abandoned_bytes = 0
                for g in abandoned:
                    limit = min(seg, d.eof - g * seg)
                    if limit <= 0:
                        continue
                    if new_mapping.owner_of_segment(g) == new_comm.rank:
                        yield from rebase(g, limit)
                        d.dirty.add(g)
                        abandoned_bytes += limit
                if abandoned_bytes:
                    self._count("tcio.ft.abandoned_bytes", abandoned_bytes)
                yield from collectives.barrier(new_comm)
            except BaseException:
                memory.free(new_alloc)
                raise

            # -- swap the handle onto the survivor partition ------------
            self.comm = new_comm
            self.mapping = new_mapping
            self.level2 = new_level2
            d.nranks = new_comm.size
            d.loaded.clear()  # old slots are gone; reads must reload
            memory.free(self._level2_alloc)
            self._allocs.remove(self._level2_alloc)
            self._level2_alloc = new_alloc
            self._allocs.append(new_alloc)
            # Old-communicator rank ids are meaningless now.
            self._unreachable_owners = set()

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

    def _writeback_pieces(self, gseg: int, limit: int) -> list[tuple[int, int]]:
        """The [lo, hi) slot ranges to write back for one owned segment.

        The complement, within ``[0, limit)``, of the segment's published
        fallback ranges (the whole range when no fallback happened).
        """
        skips = self.directory.fallback_ranges.get(gseg)
        if not skips:
            return [(0, limit)]
        pieces: list[tuple[int, int]] = []
        pos = 0
        for start, stop in merge_ranges(
            (max(0, min(start, limit)), max(0, min(stop, limit)))
            for start, stop in skips
        ):
            if start > pos:
                pieces.append((pos, start))
            pos = stop
        if pos < limit:
            pieces.append((pos, limit))
        return pieces

    # ------------------------------------------------------------------
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
