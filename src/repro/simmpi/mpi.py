"""The MPI world: wiring ranks, fabric, memory, storage, and delivery.

:class:`Launcher` is the one way ranks come to life: it builds the single
engine, parallel file system and fabric core of one machine from a cluster
description, places each job it is given on the next free nodes with its
own fabric over those nodes, spawns one simulated process per rank running
the user function, and runs every job on the one clock.
:func:`run_mpi`, which every experiment and test uses, is its one-job
case; the multi-tenant runner (:mod:`repro.tenancy`) adds several jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.memsim.memory import MemoryTracker
from repro.netsim.fabric import Fabric
from repro.netsim.server import ReservationServer
from repro.sim.api import run_coroutine
from repro.sim.engine import Engine, ProcessCrashed
from repro.sim.process import SimProcess
from repro.sim.trace import TraceRecorder
from repro.simmpi.comm import (
    Communicator,
    ExchangeSlot,
    Mailbox,
    Request,
    Status,
    _Envelope,
)
from repro.simmpi.rma import _TargetLock
from repro.util.errors import (
    DeadlockError,
    MpiError,
    RankUnreachable,
    tag_job,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.spec import ClusterSpec
    from repro.pfs.filesystem import Pfs


class MpiWorld:
    """Global state shared by all ranks of one simulated job."""

    def __init__(
        self,
        engine: Engine,
        nranks: int,
        fabric: Fabric,
        memory: MemoryTracker,
        pfs: "Pfs",
        trace: Optional[TraceRecorder] = None,
        faults=None,
        job: Optional[str] = None,
    ):
        if nranks < 1:
            raise MpiError("need at least one rank")
        self.engine = engine
        self.nranks = nranks
        #: The job's interconnect over its own nodes (global node ids; the
        #: fabric core is the machine's, shared with any other job).
        self.fabric = fabric
        self.node_of = fabric.node_of
        if len(self.node_of) != nranks:
            raise MpiError("node_of must have one entry per rank")
        self.trace = trace = trace or TraceRecorder()
        self.faults = faults  # optional bound FaultPlan
        self.memory = memory
        self.pfs = pfs
        #: Job label for multi-tenant runs (``None`` for classic solo runs).
        #: Surfaces in fault alarms and error attribution so operators can
        #: tell whose data is at risk when several jobs share one PFS.
        self.job = job
        #: This world's rank processes in rank order, registered at spawn
        #: time. With several concurrent worlds on one engine, world rank r
        #: is NOT the engine's r-th process — crash handling must only ever
        #: touch this world's own processes.
        self.procs: list = []
        self._mailboxes = [Mailbox() for _ in range(nranks)]
        self._matcher_busy = [0.0] * nranks  # per-rank matching engines
        #: (receiver world rank, match context, tag) -> ExchangeSlot of
        #: every alltoall in progress
        self.exchange_slots: dict[tuple[int, object, int], ExchangeSlot] = {}
        #: Message-path metrics, resolved on first use: resolving one
        #: creates it, and an unused one must not export as zero.
        self._counters = trace.counters
        self._histograms = trace.histograms
        #: Scratch registry for user-level libraries (TCIO) to share
        #: collectively-created metadata objects across ranks. Keys are
        #: library-chosen tuples; creation must happen inside a collective
        #: (all ranks reach the same setdefault in the same order).
        self.shared: dict = {}
        #: Ranks lost to fail-stop crashes. Communication entry points check
        #: membership and raise :class:`RankUnreachable` instead of parking
        #: a process on a wait that can never complete.
        self.dead_ranks: set[int] = set()
        #: Communicator ids revoked via :meth:`Communicator.revoke` (ULFM
        #: ``MPI_Comm_revoke``): communication entry on a revoked id raises
        #: :class:`CommRevoked` so survivors bail out and shrink instead of
        #: parking in a collective the dead can never join.
        self.revoked: set = set()
        self._windows: dict[tuple[int, int], memoryview] = {}
        self._window_locks: dict[tuple[int, int], _TargetLock] = {}
        self._windows_per_rank = [0] * nranks
        #: What the run left (see :class:`Launcher`): each rank's return
        #: value and finish time, and the exception that aborted the job.
        self.returns: list[Any] = [None] * nranks
        self.finish: list[Optional[float]] = [None] * nranks
        self.aborted: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # communicators and mailboxes
    # ------------------------------------------------------------------
    def world_comm(self, rank: int) -> Communicator:
        """The world communicator as seen from *rank*."""
        return Communicator(self, rank, comm_id=0)

    def mailbox(self, rank: int) -> Mailbox:
        """The matching state of one rank."""
        return self._mailboxes[rank]

    def exchange_slot(self, dst: int, context: object, tag: int, ranks: tuple[int, ...]):
        """World rank *dst*'s :class:`ExchangeSlot` for the alltoall with
        match *context* and *tag* over *ranks* (created on first use by
        whichever side gets there first; the receiver drops it when done)."""
        key = (dst, context, tag)
        slot = self.exchange_slots.get(key)
        if slot is None:
            slot = self.exchange_slots[key] = ExchangeSlot(self, dst, ranks)
        return slot

    # ------------------------------------------------------------------
    # message delivery
    # ------------------------------------------------------------------
    def launch(self, src: int, dst: int, nbytes: int, deliver: Callable[[], None]) -> bool:
        """Put one two-sided message of *nbytes* wire bytes on the fabric:
        the data itself, or above ``eager_limit`` only its rendezvous RTS
        (:meth:`rendezvous` moves the data once the receive is matched).
        *deliver* runs when the message has passed *dst*'s matching engine.
        Returns whether the message went eager.
        """
        fabric = self.fabric
        eager = nbytes <= fabric.spec.eager_limit
        t = fabric.delivery_time(src, dst, nbytes) if eager else fabric.control_delay(src, dst)
        self.engine.post_at(t, partial(self.arrive, dst, deliver))
        self._counters["mpi.send"].add(nbytes)
        self._histograms["mpi.msg_bytes"].observe(nbytes)
        return eager

    def arrive(self, dst: int, deliver: Callable[[], None]) -> None:
        """A message reached *dst*'s NIC: it becomes visible to receives
        (*deliver* runs) once the rank's matching engine has processed it."""
        finish = self._matcher_finish(dst)
        if finish is None:
            deliver()
            return
        self._counters["mpi.match_delay"].add(finish - self.engine.now)
        self.engine.post_at(finish, deliver)

    def _matcher_finish(self, dst: int) -> Optional[float]:
        """Reserve *dst*'s matching engine for one two-sided message and
        return when the match completes; ``None`` when matching is free,
        which matches the arrival on the spot.

        Matching is CPU work proportional to the posted/unexpected queue
        depth, so P simultaneous arrivals at one rank cost O(P^2) total —
        one-sided RMA traffic never passes through here.
        """
        spec = self.fabric.spec
        cost = spec.match_overhead + spec.match_queue_overhead * self._mailboxes[dst].queue_pressure
        if cost <= 0.0:
            return None
        now = self.engine.now
        busy = self._matcher_busy[dst]
        finish = (now if now > busy else busy) + cost
        self._matcher_busy[dst] = finish
        return finish

    def deliver(self, dst: int, env: _Envelope) -> None:
        """A message (or rendezvous RTS) reached *dst*: match or queue it."""
        mailbox = self._mailboxes[dst]
        post = mailbox.match_posted(env)
        if post is None:
            mailbox.add_unexpected(env)
            return
        env.consumed = True
        self.consume(dst, env, post.req)

    def consume(self, dst: int, env: _Envelope, req: Request) -> None:
        """A matched (message, receive) pair: finish it (maybe rendezvous)."""
        req.status = Status(source=env.src, tag=env.tag, count=env.size)
        if not env.rendezvous:
            req._complete(env.payload)
            return

        def land() -> None:
            if env.send_req is not None:
                env.send_req._complete()
            req._complete(env.payload)

        self.rendezvous(env.src, dst, env.size, land)

    def rendezvous(self, src: int, dst: int, nbytes: int, land: Callable[[], None]) -> None:
        """A matched RTS: clear-to-send travels back to *src*, then the
        *nbytes* of data stream to *dst*; *land* runs when they are there."""
        fabric, engine = self.fabric, self.engine

        def send_data() -> None:
            engine.post_at(fabric.delivery_time(src, dst, nbytes), land)

        engine.post_at(fabric.control_delay(dst, src), send_data)

    # ------------------------------------------------------------------
    # RMA windows
    # ------------------------------------------------------------------
    def register_window(self, rank: int, view: memoryview) -> int:
        """Allocate this rank's next window id and expose its buffer.

        Window creation is collective and every rank creates windows in the
        same order, so per-rank sequence numbers agree globally.
        """
        win_id = self._windows_per_rank[rank]
        self._windows_per_rank[rank] += 1
        self._windows[(win_id, rank)] = view
        return win_id

    def window_buffer(self, win_id: int, rank: int) -> memoryview:
        """The exposure buffer rank *rank* registered for window *win_id*."""
        try:
            return self._windows[(win_id, rank)]
        except KeyError:
            raise MpiError(f"window {win_id} not exposed by rank {rank}") from None

    def window_lock(self, win_id: int, rank: int) -> _TargetLock:
        """The passive-target lock state at (window, target rank)."""
        key = (win_id, rank)
        state = self._window_locks.get(key)
        if state is None:
            if key not in self._windows:
                raise MpiError(f"window {win_id} not exposed by rank {rank}")
            state = self._window_locks[key] = _TargetLock()
        return state

    def free_window(self, win_id: int, rank: int) -> None:
        """Withdraw rank *rank*'s exposure of window *win_id* and its lock
        state: later accesses raise :class:`MpiError`, and the buffer is
        the owner's alone again. Window ids are never reused."""
        self._windows.pop((win_id, rank), None)
        self._window_locks.pop((win_id, rank), None)

    # ------------------------------------------------------------------
    # fail-stop crashes
    # ------------------------------------------------------------------
    def check_alive(self, origin: int, target: int, op: str) -> None:
        """Raise :class:`RankUnreachable` if *target* died (fail-stop)."""
        if target in self.dead_ranks:
            raise RankUnreachable(origin, target, op)

    def kill_ranks(self, ranks: Sequence[int], *, where: str = "") -> None:
        """Mark *ranks* dead and interrupt every surviving parked rank.

        Fail-stop semantics: once the job has lost a member, no outstanding
        coordination can complete, so every parked survivor is resumed with
        :class:`RankUnreachable` at its wait point (the interrupt goes
        through the event heap; a survivor resumed normally first observes
        the dead set at its next communication call). This *is* the
        deterministic failure-notification path of :mod:`repro.simmpi.ft`:
        a non-FT program lets the exception propagate and the job aborts;
        an FT program catches it, shrinks, and continues.
        """
        fresh = [r for r in ranks if r not in self.dead_ranks]
        if not fresh:
            return
        self.dead_ranks.update(fresh)
        self.trace.count("crash.ranks", len(fresh))
        procs = self.procs
        for peer in range(min(self.nranks, len(procs))):
            proc = procs[peer]
            if not proc.alive:
                continue
            if peer in self.dead_ranks:
                # A victim parked at kill time unwinds with ProcessCrashed
                # (a running victim stops at its next crash_point / comm
                # call instead); without this, a dead-but-parked process
                # wedges an otherwise-surviving run in DeadlockError.
                if peer in fresh and proc.wait_reason is not None:
                    proc.interrupt(
                        ProcessCrashed(peer, proc.wait_reason or where or "killed")
                    )
                continue
            if proc.wait_reason is None:
                # Running (not parked) at kill time — e.g. the rank that
                # initiated the kill, or one between waits. It observes
                # the dead set at its next communication entry; delivering
                # the interrupt at whatever *later* wait it reaches would
                # poison post-shrink communicators a fault-tolerant
                # program already rebuilt.
                continue
            proc.interrupt(
                RankUnreachable(peer, fresh[0], proc.wait_reason or where or "wait")
            )

    def crash_point(self, step: str, rank: int) -> None:
        """Named protocol step hook for deterministic crash injection.

        Instrumented libraries (TCIO's flush protocol) call this at every
        step a crash campaign may target. With no bound fault plan this is
        one attribute read; with a plan, the plan decides — deterministically,
        from its seeded ``crash`` stream and step counters — whether *rank*
        dies here, in which case the rank is marked dead, survivors are
        interrupted, and :class:`ProcessCrashed` unwinds the calling thread.
        """
        plan = self.faults
        if plan is None:
            return
        if rank in self.dead_ranks:
            # A co-located victim of an earlier crash_node kill that was
            # running (not parked) when it was marked dead: it must stop
            # at its next protocol step, not keep mutating shared state.
            raise ProcessCrashed(rank, step)
        if plan.crash_point(step, rank, self.node_of[rank]):
            if plan.spec.crash_node is not None:
                node = self.node_of[rank]
                victims = [r for r in range(self.nranks) if self.node_of[r] == node]
            else:
                victims = [rank]
            self.kill_ranks(victims, where=step)
            raise ProcessCrashed(rank, step)

    def charge_matching(self, dst: int) -> float:
        """Reserve *dst*'s matching engine for one two-sided message and
        return the completion time (ablation hook: lets TCIO's two-sided
        variant pay realistic receive-side costs without a real receiver
        loop)."""
        finish = self._matcher_finish(dst)
        if finish is None:  # free matching still queues behind a busy engine
            now, busy = self.engine.now, self._matcher_busy[dst]
            return now if now > busy else busy
        return finish


@dataclass
class RankEnv:
    """Everything a rank program sees: its communicator plus the substrate.

    ``process`` is the rank's :class:`~repro.sim.process.SimProcess`
    (sleep/charge/settle), bound when the rank is spawned.
    """

    comm: Communicator
    world: MpiWorld
    process: Optional[SimProcess] = None

    @property
    def rank(self) -> int:
        """This rank's id in the world communicator."""
        return self.comm.rank

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self.comm.size

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.world.engine.now

    def compute(self, seconds: float) -> None:
        """Charge local compute time (lazily; elapses at the next
        communication/storage call, or via :meth:`settle`)."""
        self.process.charge(seconds)

    def settle(self):
        """Force accrued compute time to elapse now (coroutine)."""
        return self.process.settle()

    @property
    def pfs(self) -> "Pfs":
        """The job's parallel file system."""
        return self.world.pfs


@dataclass
class MpiRunResult:
    """Outcome of one simulated job."""

    elapsed: float
    returns: list[Any]
    trace: TraceRecorder
    world: MpiWorld
    #: ``None`` for a clean run; the job-aborting exception after a
    #: fail-stop crash (the PFS/world snapshots remain inspectable, which
    #: is how crash-recovery tooling gets at the post-crash file image).
    aborted: Optional[BaseException] = None

    @property
    def pfs(self) -> "Pfs":
        """The job's parallel file system."""
        return self.world.pfs

    @property
    def dead_ranks(self) -> set[int]:
        """Ranks lost to fail-stop crashes during the run."""
        return set(self.world.dead_ranks)


class Launcher:
    """One simulated machine and the jobs launched onto it.

    Builds the run's single :class:`~repro.sim.engine.Engine`, parallel file
    system and fabric core from a cluster description. :meth:`add` places
    a job on the next free nodes and spawns its ranks; :meth:`run` runs
    every job on the one clock. Jobs sit on disjoint nodes, so their NIC
    ports, node memory and connections never overlap: the fabric core and
    the file system are what they share.

    Two rules depend on the number of jobs, and only on it:

    * *abort* — in a one-job run the first uncaught
      :class:`RankUnreachable` stops the engine and leaves the post-crash
      state for recovery tooling. With several jobs the abort stays inside
      its job: the job's ranks wind down, its neighbours run on, and a job
      that lost a rank counts as aborted.
    * *faults* — a job's fault plan reaches the file system and the fabric
      only in a one-job run; with several jobs it drives the job's own
      crash points.
    """

    def __init__(self, cluster: "ClusterSpec", trace: Optional[TraceRecorder] = None):
        cluster.validate()
        self.cluster = cluster
        #: The machine's recorder: the engine's event count and run span,
        #: plus everything a job given no recorder of its own records.
        self.trace = trace or TraceRecorder()
        self.engine = Engine(trace=self.trace)
        self.pfs = cluster.build_pfs(self.engine, self.trace)
        self.core = ReservationServer("fabric.core", cluster.network.fabric_bandwidth)
        self.worlds: list[MpiWorld] = []
        self._free_node = 0

    def add(
        self,
        nranks: int,
        main: Callable[[RankEnv], Any],
        *,
        job: Optional[str] = None,
        arrival: float = 0.0,
        faults=None,
        trace: Optional[TraceRecorder] = None,
        pfs=None,
    ) -> MpiWorld:
        """Place *nranks* ranks running *main* on the next free nodes.

        The ranks start at simulated time *arrival*. *job* labels the world
        and its rank processes; *trace* is the job's own recorder and *pfs*
        its view of the file system (both default to the machine's). The
        job's world, fabric and fault plan record into *trace*, which spans
        on the machine's clock; a *pfs* view carries its own. *faults* is an
        optional :class:`repro.faults.FaultPlan`, bound here to the job.
        """
        cluster = self.cluster
        cpn = cluster.cores_per_node
        first = self._free_node
        if first * cpn + nranks > cluster.capacity:
            raise MpiError(f"{nranks} ranks exceed cluster capacity {cluster.capacity}")
        trace = trace or self.trace
        engine = self.engine
        # A clock over the engine alone: one over the launcher would keep
        # its worlds alive for as long as the recorder lives.
        trace.tracer.bind_clock(lambda: engine.now)
        if faults is not None:
            faults.bind(self.engine, trace)
        node_of = [first + r // cpn for r in range(nranks)]
        world = MpiWorld(
            self.engine,
            nranks,
            Fabric(self.engine, cluster.network, node_of, trace, core=self.core),
            MemoryTracker(cluster.memory_per_node, node_of),
            pfs=pfs or self.pfs,
            trace=trace,
            faults=faults,
            job=job,
        )
        self._free_node = first + -(-nranks // cpn)
        prefix = "" if job is None else f"{job}:"
        for rank in range(nranks):
            env = RankEnv(comm=world.world_comm(rank), world=world)
            proc = self.engine.spawn(
                f"{prefix}rank{rank}", partial(self._rank, world, env, main, arrival)
            )
            env.process = proc
            world.procs.append(proc)
        self.worlds.append(world)
        return world

    def _rank(self, world: MpiWorld, env: RankEnv, main, arrival: float):
        """One rank's life: arrive, run *main*, settle, record the finish."""
        if arrival > 0.0:
            yield from env.process.sleep(arrival)
        try:
            world.returns[env.rank] = yield from run_coroutine(main(env))
            yield from env.process.settle()
        except RankUnreachable as exc:
            if len(self.worlds) == 1:
                raise
            # Containment: this job is dead, the machine is not. Wind the
            # rank down quietly so neighbour jobs keep running.
            world.aborted = tag_job(exc, world.job)
            return
        world.finish[env.rank] = self.engine.now

    def run(self) -> float:
        """Run every job to completion; returns the final clock.

        A crash-aborted job does not raise: its world keeps the aborting
        exception in ``aborted`` and the file system its post-crash image.
        A failure not explained by a crashed rank is a real bug: re-raised.
        """
        worlds, engine = self.worlds, self.engine
        solo = len(worlds) == 1
        plan = worlds[0].faults if solo else None
        if plan is not None:
            worlds[0].fabric.faults = plan
            self.pfs.install_faults(plan)
        try:
            elapsed = engine.run()
        except (RankUnreachable, DeadlockError) as exc:
            dead = [world for world in worlds if world.dead_ranks]
            if not dead:
                raise
            for world in dead:
                world.aborted = tag_job(exc, world.job)
            elapsed = engine.now
        for world in worlds:
            if not world.dead_ranks or world.aborted is not None:
                continue
            # Alone, a fault-tolerant program shrinks around the dead ranks:
            # every survivor finishing is a successful (degraded) run, and
            # the job counts as aborted only when some survivor never made
            # it to the end (e.g. the crashed rank was the last one running,
            # so no survivor ever raised). Beside other jobs, a job that
            # lost a rank is aborted.
            unfinished = [
                r for r in range(world.nranks)
                if world.finish[r] is None and r not in world.dead_ranks
            ]
            if unfinished or not solo:
                lost = min(world.dead_ranks)
                world.aborted = tag_job(
                    RankUnreachable((unfinished or [lost])[0], lost, "job"), world.job
                )
        # Only the *deterministic* host counter lands in the run's registry:
        # the number of engine events is a pure function of the workload, so
        # trace snapshots stay replay-identical. Wall-clock and events/sec are
        # measured by the ``benchmarks/e2e`` harness outside the registry.
        self.trace.registry.counter("host.engine.events").inc(engine.events)
        return elapsed


def run_mpi(
    nranks: int,
    main: Callable[[RankEnv], Any],
    *,
    cluster: "Optional[ClusterSpec]" = None,
    trace: Optional[TraceRecorder] = None,
    pfs_init: Optional[Callable[["Pfs"], None]] = None,
    faults=None,
) -> MpiRunResult:
    """Run *main* on *nranks* simulated ranks; returns results and timings.

    All configuration is keyword-only. ``main(env)`` runs once per rank —
    as a generator coroutine (the normal case: anything that communicates
    or does I/O blocks via ``yield from``) or a plain function; its return
    values are collected in rank order. The default cluster is the scaled Lonestar preset sized to
    hold ``nranks`` (12 ranks per node, as on the paper's testbed).
    ``pfs_init`` pre-populates the fresh file system before time starts
    (e.g. a restart job reading a snapshot an earlier job produced).
    ``faults`` is an optional :class:`repro.faults.FaultPlan`; it is bound
    to this job's engine/trace and installed into the fabric and the PFS
    before any rank starts.
    """
    from repro.cluster.lonestar import make_lonestar

    machine = Launcher(cluster if cluster is not None else make_lonestar(nranks=nranks), trace)
    world = machine.add(nranks, main, faults=faults)
    if pfs_init is not None:
        pfs_init(machine.pfs)
    elapsed = machine.run()
    return MpiRunResult(
        elapsed=elapsed,
        returns=world.returns,
        trace=machine.trace,
        world=world,
        aborted=world.aborted,
    )
