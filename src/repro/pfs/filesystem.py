"""The file system front end: namespace plus per-node clients.

A :class:`PfsClient` is what rank-side code calls. One ``read``/``write``
is charged as: lock-server round trip, then (in parallel across OSTs, FIFO
within each OST) per-request overhead + transfer at the direction's rate,
bounded by the client node's storage link; the caller's simulated process
sleeps until the last piece completes, then the lock releases.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.netsim.server import ReservationServer
from repro.pfs.file import PfsFile
from repro.pfs.layout import StripeLayout
from repro.pfs.lockmgr import LockMode
from repro.pfs.ost import Ost
from repro.pfs.spec import LustreSpec
from repro.sim.engine import Engine, active_process
from repro.sim.trace import TraceRecorder
from repro.util.errors import PfsError
from repro.util.intervals import Extent


class Pfs:
    """Namespace + OST pool of one simulated file system."""

    def __init__(
        self,
        engine: Engine,
        spec: LustreSpec,
        n_client_nodes: int,
        trace: Optional[TraceRecorder] = None,
    ):
        spec.validate()
        self.engine = engine
        self.spec = spec
        #: The recorder of files and clients no job claims (see
        #: :meth:`create` and :meth:`client`).
        self.trace = trace or TraceRecorder()
        self.osts = [
            Ost(
                i,
                spec.ost_write_bandwidth,
                spec.ost_read_bandwidth,
                spec.ost_write_overhead,
                spec.ost_read_overhead,
                spec.ost_write_noise,
                spec.ost_read_noise,
                spec.ost_client_scaling,
            )
            for i in range(spec.n_osts)
        ]
        self._client_links = [
            ReservationServer(f"lnet{n}", spec.client_bandwidth)
            for n in range(max(1, n_client_nodes))
        ]
        self._files: dict[str, PfsFile] = {}
        self._next_first_ost = 0
        self.faults = None  # optional FaultPlan (see install_faults)
        #: Tenant jobs enrolled for QoS/accounting (multi-job runs only).
        self.tenants: list[str] = []

    # ------------------------------------------------------------------
    # multi-tenant QoS
    # ------------------------------------------------------------------
    @property
    def qos_policy(self) -> str:
        """The OST token-issue policy (``"fifo"`` or ``"fair"``)."""
        return self.osts[0].qos_policy if self.osts else "fifo"

    def set_qos(self, policy: str) -> None:
        """Select the OST token-issue policy for multi-tenant runs.

        ``"fifo"`` (default) keeps classic arrival-order service —
        bit-identical to single-job behavior. ``"fair"`` paces token
        issue per enrolled tenant (see :meth:`Ost.register_tenant`);
        it changes *when* requests run, never what bytes land.
        """
        if policy not in ("fifo", "fair"):
            raise PfsError(f"unknown QoS policy {policy!r}")
        for ost in self.osts:
            ost.qos_policy = policy

    def register_tenant(self, job: str, weight: float = 1.0) -> None:
        """Enroll job *job* for per-OST QoS pacing and byte accounting.

        ``weight`` is the job's fair-share priority (see
        :meth:`Ost.register_tenant`).
        """
        if job not in self.tenants:
            self.tenants.append(job)
        for ost in self.osts:
            ost.register_tenant(job, weight)

    def install_faults(self, plan) -> None:
        """Arm this file system with a bound :class:`FaultPlan`.

        Chooses the plan's slow OSTs (recorded as ``ost.slow`` injections),
        hands every OST the plan for per-request stalls, and switches
        existing files' lock managers to audited/reporting mode. Call
        before time starts (run_mpi does, before ``pfs_init``).
        """
        self.faults = plan
        if plan is None:
            return
        for index in plan.slow_osts_for(len(self.osts)):
            self.osts[index].fault_factor = plan.spec.slow_factor
        for ost in self.osts:
            ost.faults = plan
        for f in self._files.values():
            self._arm_locks(f)

    def _arm_locks(self, f: PfsFile) -> None:
        if self.faults is not None:
            f.locks.audit = f.locks.audit or self.faults.spec.audit_locks
            f.locks.on_timeout = self.faults.note_lock_timeout

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        *,
        stripe_count: Optional[int] = None,
        trace: Optional[TraceRecorder] = None,
        first_ost: Optional[int] = None,
    ) -> PfsFile:
        """Create (or return existing) file; stripes start round-robin.

        *first_ost* pins the start OST instead (``lfs setstripe -i``); a
        pinned file leaves the round-robin cursor where it was, so no
        later file moves. A new file's lock manager records into *trace*,
        the creating job's recorder (this file system's by default).
        """
        if name in self._files:
            return self._files[name]
        count = self.spec.default_stripe_count if stripe_count is None else stripe_count
        layout = StripeLayout(
            stripe_size=self.spec.stripe_size,
            stripe_count=count,
            first_ost=self._next_first_ost if first_ost is None else first_ost,
            n_osts=self.spec.n_osts,
        )
        if first_ost is None:
            self._next_first_ost = (self._next_first_ost + count) % self.spec.n_osts
        f = PfsFile(name, layout, self.spec.lock_contention_penalty, trace or self.trace)
        self._arm_locks(f)
        self._files[name] = f
        return f

    def lookup(self, name: str) -> PfsFile:
        """The file named *name* (PfsError if absent)."""
        try:
            return self._files[name]
        except KeyError:
            raise PfsError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        """Whether *name* exists in the namespace."""
        return name in self._files

    def unlink(self, name: str) -> None:
        """Remove *name* from the namespace (idempotent)."""
        self._files.pop(name, None)

    def list_files(self) -> Sequence[str]:
        """Sorted names of all files."""
        return sorted(self._files)

    # ------------------------------------------------------------------
    def client(
        self,
        node: int,
        *,
        tenant: Optional[str] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> "PfsClient":
        """The storage client of compute node *node*.

        ``tenant`` tags the client with a job name for multi-tenant QoS
        and per-OST byte attribution; solo runs leave it ``None``. The
        client's requests record into *trace*, the job's recorder (this
        file system's by default).
        """
        if not (0 <= node < len(self._client_links)):
            raise PfsError(f"node {node} has no storage link")
        return PfsClient(self, node, tenant=tenant, trace=trace)


class PfsClient:
    """The POSIX-ish per-node interface rank code uses."""

    def __init__(
        self,
        pfs: Pfs,
        node: int,
        *,
        tenant: Optional[str] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        self.pfs = pfs
        self.node = node
        self.tenant = tenant
        self.trace = trace or pfs.trace
        self._link = pfs._client_links[node]

    # ------------------------------------------------------------------
    def write(
        self,
        file: PfsFile | str,
        offset: int,
        data: bytes | memoryview,
        *,
        owner: int = 0,
        lock_timeout: Optional[float] = None,
    ):
        """Synchronous write of one contiguous extent (coroutine).

        ``lock_timeout`` bounds the extent-lock wait (LockTimeout past it);
        None waits unboundedly, as before.
        """
        return self._transfer(file, offset, data, len(data), True, owner, lock_timeout)

    def read(
        self,
        file: PfsFile | str,
        offset: int,
        nbytes: int,
        *,
        owner: int = 0,
        lock_timeout: Optional[float] = None,
    ):
        """Synchronous read of one contiguous extent (holes read as zeros).

        Coroutine returning the bytes.
        """
        return self._transfer(file, offset, None, nbytes, False, owner, lock_timeout)

    def write_sieved(
        self,
        file: PfsFile | str,
        pieces: list[tuple[int, bytes]],
        *,
        owner: int = 0,
        lock_timeout: Optional[float] = None,
    ):
        """Data-sieving write: read-modify-write of the bounding extent
        under ONE exclusive lock.

        Without the cross-operation lock, two clients whose sieve windows
        overlap would resurrect stale bytes over each other's disjoint
        data — the lost-update ROMIO's sieving locks exist to prevent.
        """
        f = file if isinstance(file, PfsFile) else self.pfs.lookup(file)
        if not pieces:
            return
        proc = active_process()
        yield from proc.settle()
        engine = self.pfs.engine
        start_off = min(off for off, _ in pieces)
        stop_off = max(off + len(b) for off, b in pieces)
        extent = Extent(start_off, stop_off)
        hits_before = f.locks.cache_hits
        grant = yield from f.locks.acquire(
            owner, LockMode.EXCLUSIVE, extent, timeout=lock_timeout
        )
        if f.locks.cache_hits == hits_before:
            proc.charge(self.pfs.spec.lock_latency)
        tracer = self.trace.tracer
        # read phase
        now = engine.now
        link_done = self._link.reserve(now, extent.length)
        finish = self._book_osts(f.layout, start_off, stop_off, link_done, False, owner, tracer)
        buf = bytearray(f.read_bytes(extent.start, extent.length))
        for off, data in pieces:
            buf[off - extent.start : off - extent.start + len(data)] = data
        # write phase starts after the read completes
        link_done = self._link.reserve(finish, extent.length)
        w_finish = self._book_osts(f.layout, start_off, stop_off, link_done, True, owner, tracer)
        if tracer.enabled:
            tracer.complete("pfs.sieved_write", now, w_finish, bytes=extent.length)
        f.write_bytes(extent.start, bytes(buf))
        if w_finish > engine.now:
            proc.charge(w_finish - engine.now)
            engine.schedule_at(w_finish, partial(f.locks.done, grant))
        else:
            f.locks.done(grant)
        self.trace.counters["pfs.sieved_write"].add(sum(len(b) for _, b in pieces))

    # ------------------------------------------------------------------
    def _book_osts(
        self,
        layout: StripeLayout,
        start: int,
        stop: int,
        arrival: float,
        write: bool,
        owner: int,
        tracer,
    ) -> float:
        """Reserve bytes ``[start, stop)`` on the OSTs that store them, every
        piece arriving at *arrival*, in stripe order (runs on one OST
        merged by :meth:`StripeLayout.split_by_ost`); returns the latest
        completion, never before *arrival*. ``ost.*`` intervals go to
        *tracer* when it is enabled.
        """
        osts = self.pfs.osts
        traced = tracer.enabled
        finish = arrival
        for ost_idx, pieces in layout.split_by_ost(Extent(start, stop)).items():
            ost = osts[ost_idx]
            for piece in pieces:
                t = ost.reserve(
                    arrival, piece.length, write=write, client=owner, tenant=self.tenant
                )
                if traced:
                    tracer.complete(
                        "ost.write" if write else "ost.read", ost.last_start, t,
                        f"ost{ost_idx}", bytes=piece.length, client=owner,
                    )
                if t > finish:
                    finish = t
        return finish

    def _transfer(
        self,
        file: PfsFile | str,
        offset: int,
        data: Optional[bytes | memoryview],
        nbytes: int,
        write: bool,
        owner: int,
        lock_timeout: Optional[float],
    ):
        """One contiguous read or write (coroutine returning the bytes
        read, or None for a write): the extent lock, the link and OST
        reservations, the bytes, and the lock release at completion."""
        f = file if isinstance(file, PfsFile) else self.pfs.lookup(file)
        proc = active_process()
        yield from proc.settle()
        if nbytes <= 0:
            if nbytes < 0:
                raise PfsError(f"negative request size {nbytes}")
            return None if write else b""
        pfs = self.pfs
        engine = pfs.engine
        stop = offset + nbytes

        # 1. The extent lock, on whole lock units. A cached grant (Lustre
        #    client lock caching) is free; an actual acquisition charges
        #    the lock-server round trip, and a contended one parks the
        #    caller in wait_for.
        locks = f.locks
        mode = LockMode.EXCLUSIVE if write else LockMode.SHARED
        unit = locks.granularity
        lock_lo = offset // unit * unit
        lock_hi = -(-stop // unit) * unit
        hits_before = locks.cache_hits
        grant = locks.acquire_nowait(owner, mode, lock_lo, lock_hi, proc)
        if grant is None:
            grant = yield from locks.wait_for(
                owner, mode, lock_lo, lock_hi, proc, lock_timeout
            )
        if locks.cache_hits == hits_before:
            proc.charge(pfs.spec.lock_latency)
        released = False
        try:
            # 2. The client link and the OSTs both reserve the transfer;
            #    completion is the latest of them.
            trace = self.trace
            tracer = trace.tracer
            traced = tracer.enabled
            start = engine.now
            link_done = self._link.reserve(start, nbytes)
            layout = f.layout
            stripe = offset // layout.stripe_size
            if (stop - 1) // layout.stripe_size == stripe:
                # Inside one stripe (every independent MPI-IO request,
                # every TCIO segment flush): one request on its OST.
                ost_idx = layout.ost_of_stripe(stripe)
                ost = pfs.osts[ost_idx]
                t = ost.reserve(link_done, nbytes, write=write, client=owner, tenant=self.tenant)
                if traced:
                    tracer.complete(
                        "ost.write" if write else "ost.read", ost.last_start, t,
                        f"ost{ost_idx}", bytes=nbytes, client=owner,
                    )
                finish = t if t > link_done else link_done
            else:
                finish = self._book_osts(layout, offset, stop, link_done, write, owner, tracer)
            if traced:
                tracer.complete(
                    "pfs.write" if write else "pfs.read", start, finish, bytes=nbytes
                )

            # 3. Data lands/loads instantaneously at the commit point; the
            #    caller's timeline advances to `finish` lazily, and the
            #    lock releases (waking any waiter) exactly at `finish`.
            if write:
                f.write_bytes(offset, data)
                result = None
            else:
                result = f.read_bytes(offset, nbytes)
            if finish > engine.now:
                proc.charge(finish - engine.now)
                engine.schedule_at(finish, partial(locks.done, grant))
                released = True
            trace.counters["pfs.write" if write else "pfs.read"].add(nbytes)
            trace.histograms["pfs.write_bytes" if write else "pfs.read_bytes"].observe(nbytes)
            return result
        finally:
            if not released:
                locks.done(grant)
