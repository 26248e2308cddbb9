"""The crash-differential harness: kill a rank at every protocol step.

There is one *cell*, :func:`run_cell`, and it always does the same thing:

1. a crash-free **counting run** with an idle
   :class:`~repro.faults.plan.FaultPlan` tallies how often the victim
   reaches the step (``plan.step_hits``);
2. the **armed run** sets ``crash_after`` to that count — the last
   occurrence, which falls in the final epoch. Same seed + same spec →
   same crash, every time;
3. the outcome is **classified**: abort mode expects the job to abort,
   runs :func:`repro.crash.recover.recover` on the surviving PFS image and
   compares it byte-for-byte with the expected image rolled back to the
   last committed epoch; survive mode (TCIO ``ft`` / delegate
   ``failover`` on) expects the job to *complete* with exactly the victim
   dead and compares the as-left image with no recovery pass at all.
   Either way :func:`repro.crash.fsck.fsck` must come back *clean* (zero
   torn, zero untracked bytes). With ``journal="off"`` — the control that
   shows what the journal buys — the same crash loses deposited bytes, and
   fsck (fed the aborted run's in-memory directory as a
   :class:`~repro.crash.fsck.CrashContext`) must detect and report them.

What is run, and what image is expected, comes from one of two *targets*:

* ``kind="tcio"`` — a fixed two-phase TCIO workload (phase 1 writes a low
  region, ``tcio_flush`` commits epoch 1, phase 2 writes a disjoint higher
  region, ``tcio_close`` commits epoch 2). A crash at ``pre-deposit`` /
  ``post-deposit`` / ``mid-flush`` / ``pre-commit`` must recover the
  crash-free file truncated to the epoch-1 eof; ``post-commit`` the full
  file. In survive mode the victim's level-1-only phase-2 bytes may read
  zero instead (legitimately lost) — except ``post-commit``, where its
  records were committed and the survivors replay them.
* ``kind="server"`` — a seeded request trace through the
  ``repro.ioserver`` delegates, one of which dies at a service-loop or
  commit step. The expected image is the analytic
  :func:`~repro.ioserver.trace.expected_image` (the prior epoch's prefix
  for rollback steps); nothing may be flagged ``data_at_risk``, and with
  failover the clients' replay buffers mean **nothing** is lost at any
  step.

:func:`run_matrix` is every step × every aggregation mode of one target.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.crash.fsck import CrashContext, FsckReport, fsck
from repro.crash.recover import RecoveryReport, recover

#: Every protocol step a crash point guards, in protocol order. The first
#: two bracket the level-1 deposit (they fire in any journal mode); the
#: last three exist only inside the epoched flush protocol.
STEPS = ("pre-deposit", "post-deposit", "mid-flush", "pre-commit", "post-commit")

#: Steps recovery discards phase 2 for (the crash lands before the
#: epoch-2 commit mark is durable).
ROLLBACK_STEPS = ("pre-deposit", "post-deposit", "mid-flush", "pre-commit")

SEGMENT = 64  # small segments: every rank owns several, deposits go remote
PER_RANK = 96  # per-rank bytes per phase; crosses a segment boundary


def _pattern(rank: int, phase: int, n: int) -> bytes:
    """Deterministic, rank/phase-distinct payload bytes."""
    start = (rank * 31 + phase * 101) % 251
    return bytes((start + i) % 251 + 1 for i in range(n))


def _make_config(nranks: int, journal: str, aggregation: str):
    from repro.tcio import TcioConfig

    total = 2 * nranks * PER_RANK
    base = TcioConfig.sized_for(total, nranks, SEGMENT)
    return replace(base, journal=journal, aggregation=aggregation)


def _make_main(name: str, config):
    """The two-phase workload body (one closure per run)."""
    from repro.tcio import TCIO_WRONLY, tcio_close, tcio_flush, tcio_open, tcio_write_at

    def main(env):
        nranks = env.size
        fh = yield from tcio_open(env, name, TCIO_WRONLY, config)
        yield from tcio_write_at(
            fh, env.rank * PER_RANK, _pattern(env.rank, 1, PER_RANK)
        )
        yield from tcio_flush(fh)  # epoch 1: phase-1 region durable
        base = nranks * PER_RANK
        yield from tcio_write_at(
            fh, base + env.rank * PER_RANK, _pattern(env.rank, 2, PER_RANK)
        )
        yield from tcio_close(fh)  # epoch 2: phase-2 region durable

    return main


def _run(name, config, nranks, cores_per_node, faults=None):
    from repro.experiments.topo_ablation import ablation_cluster
    from repro.simmpi import run_mpi

    return run_mpi(
        nranks,
        _make_main(name, config),
        cluster=ablation_cluster(nranks, cores_per_node),
        faults=faults,
    )


@dataclass
class CrashCell:
    """One (step, aggregation mode) differential result."""

    step: str
    aggregation: str
    journal: str
    ok: bool
    detail: str
    crash_after: int
    aborted: bool
    recovery: Optional[RecoveryReport] = None
    fsck: Optional[FsckReport] = None

    def summary(self) -> str:
        state = "ok" if self.ok else "FAIL"
        return (
            f"crash@{self.step:<12} {self.aggregation:<4} "
            f"journal={self.journal}: {state} — {self.detail}"
        )


@dataclass
class CrashMatrixResult:
    """All cells of one campaign."""

    nranks: int
    seed: int
    cells: list[CrashCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def render(self) -> str:
        lines = [f"crash matrix: {self.nranks} ranks, seed {self.seed}"]
        lines += ["  " + cell.summary() for cell in self.cells]
        lines.append(f"  => {'all clean' if self.ok else 'FAILURES'}")
        return "\n".join(lines)


def crash_free_reference(
    *, aggregation: str = "flat", nranks: int = 4, cores_per_node: int = 2
) -> bytes:
    """The full crash-free file image (journaled run, same workload)."""
    config = _make_config(nranks, "epoch", aggregation)
    result = _run("ref.dat", config, nranks, cores_per_node)
    if result.aborted is not None:
        raise RuntimeError(f"reference run aborted: {result.aborted}")
    return result.pfs.lookup("ref.dat").contents()


#: Server-mode protocol steps a delegate can die at: the service-loop
#: steps plus the journaled commit bracket that fires inside the
#: delegate's own TCIO flush. (``srv-close`` fires after the last epoch
#: committed, so like ``post-commit`` it must recover the full image.)
SERVER_STEPS = (
    "srv-admit", "srv-apply", "srv-flush", "pre-commit",
    "post-commit", "srv-close",
)

#: Server-mode steps whose last occurrence lands before the final
#: epoch's commit mark — recovery must roll back to the prior epoch.
SERVER_ROLLBACK_STEPS = ("srv-admit", "srv-apply", "srv-flush", "pre-commit")


class _TcioTarget:
    """Bare TCIO: the fixed two-phase workload; any rank may be the victim."""

    steps, rollback_steps, modes = STEPS, ROLLBACK_STEPS, ("flat", "node")
    control_step = "post-deposit"  # the only close-time step that exists unjournaled
    noun, ft_noun, image_noun = "rank", "FT", "reference"
    check_at_risk = False

    def __init__(self, survive, journal, seed, *, aggregation="flat", nranks=4,
                 cores_per_node=2, victim=1, reference=None):
        if not 0 <= victim < nranks:
            raise ValueError(
                f"victim rank {victim} does not exist (choose from 0..{nranks - 1})"
            )
        self.survive, self.journal, self.seed = survive, journal, seed
        self.column, self.victim = aggregation, victim
        self.nranks, self.cores_per_node = nranks, cores_per_node
        self.config = replace(_make_config(nranks, journal, aggregation), ft=survive)
        self.name = "survive.dat" if survive else "crash.dat"
        self.reference = reference
        # A survive run may leave the victim's phase-2 region zero: its
        # level-1-only bytes are legitimately lost before the commit.
        base = (nranks + victim) * PER_RANK
        self.victim_range = range(base, base + PER_RANK)

    def run(self, faults):
        return _run(
            self.name, self.config, self.nranks, self.cores_per_node, faults=faults
        )

    def expected(self, rollback: bool) -> bytes:
        if self.reference is None:
            self.reference = crash_free_reference(
                aggregation=self.column, nranks=self.nranks,
                cores_per_node=self.cores_per_node,
            )
        return self.reference[: self.nranks * PER_RANK] if rollback else self.reference

    def survive_detail(self, mpi, survives: int, image: bytes) -> str:
        lost = sum(1 for i in self.victim_range if i < len(image) and image[i] == 0)
        return (
            f"completed degraded ({survives} survive round(s)), "
            f"{lost}b of the victim's uncommitted data lost, fsck clean"
        )


class _ServerTarget:
    """``repro.ioserver``: a request trace through the delegates; the
    victim is a delegate (the last one unless named)."""

    steps, rollback_steps, modes = SERVER_STEPS, SERVER_ROLLBACK_STEPS, ("server",)
    control_step = None
    noun, ft_noun, image_noun = "delegate", "failover", "expected"
    check_at_risk = True

    def __init__(self, survive, journal, seed, *, aggregation="server", nclients=6,
                 nranks=6, cores_per_node=3, victim=None, trace=None):
        from repro.ioserver import IoServerConfig, generate_trace, plan_for

        if trace is None:
            # Writes only (a read phase would push the last srv-* hits past
            # every commit, degenerating the rollback cells) and dense (fsck
            # cannot tell a sparse hole from an untracked byte).
            trace = generate_trace(
                seed, nclients, epochs=2, writes_per_epoch=3,
                reads_per_client=0, dense=True,
            )
        self.survive, self.journal, self.seed = survive, journal, seed
        self.column, self.trace, self.name = aggregation, trace, trace.file_name
        self.nranks, self.cores_per_node = nranks, cores_per_node
        self.config = IoServerConfig(failover=survive)
        self.victim_range = range(0)  # client-side replay: failover loses nothing
        delegates = plan_for(trace, nranks, cores_per_node, self.config).delegates
        self.victim = delegates[-1] if victim is None else victim
        if self.victim not in delegates:
            raise ValueError(
                f"victim rank {victim} is not a delegate "
                f"(choose from {list(delegates)})"
            )

    def run(self, faults):
        from repro.ioserver import run_ioserver

        return run_ioserver(
            self.trace, nranks=self.nranks, cores_per_node=self.cores_per_node,
            config=self.config, faults=faults,
        ).mpi

    def expected(self, rollback: bool) -> bytes:
        from repro.ioserver import expected_image

        return expected_image(
            self.trace, epochs=self.trace.epochs - 1 if rollback else None
        )

    def survive_detail(self, mpi, survives: int, image: bytes) -> str:
        redirects = int(mpi.trace.get("ioserver.failover.redirects").total)
        replayed = int(mpi.trace.get("ioserver.failover.replayed_bytes").total)
        return (
            f"completed degraded ({survives} survive round(s), "
            f"{redirects} redirect(s), {replayed}b replayed by clients), "
            f"image exact, fsck clean"
        )


_TARGETS = {"tcio": _TcioTarget, "server": _ServerTarget}


def _check_step(target, step: str) -> None:
    if step not in target.steps:
        raise ValueError(
            f"unknown crash step {step!r} (choose from {list(target.steps)})"
        )


def _first_divergence(image: bytes, expected: bytes, lossy: range) -> int:
    """Index of the first byte of *image* that is neither the expected
    value nor a zero inside *lossy*; -1 when the images agree."""
    for i in range(min(len(image), len(expected))):
        if image[i] != expected[i] and not (i in lossy and image[i] == 0):
            return i
    return -1 if len(image) == len(expected) else min(len(image), len(expected))


def _run_cell(target, step: str) -> CrashCell:
    """The one cell body: count → arm → run → classify (see module doc)."""
    from repro.faults import FaultPlan, FaultSpec

    survive, seed, victim, name = target.survive, target.seed, target.victim, target.name
    label = target.journal + ("+ft" if survive else "")

    def cell(ok, detail, hits=0, aborted=False, **reports):
        return CrashCell(
            step, target.column, label, ok, detail, hits, aborted, **reports
        )

    counting = FaultPlan(FaultSpec(), seed, scope="crash-count")
    target.run(counting)
    hits = counting.step_hits[(step, victim)]
    if hits == 0:
        return cell(False, f"{target.noun} {victim} never reaches step")
    armed = FaultPlan(
        FaultSpec(crash_rank=victim, crash_step=step, crash_after=hits),
        seed, scope="crash",
    )
    mpi = target.run(armed)
    if not survive and mpi.aborted is None:
        return cell(False, "job did not abort", hits)
    if survive and mpi.aborted is not None:
        return cell(
            False, f"{target.ft_noun} run aborted anyway: {mpi.aborted}", hits, True
        )
    if survive and mpi.dead_ranks != {victim}:
        return cell(False, f"unexpected dead set {sorted(mpi.dead_ranks)}", hits)

    pfs = mpi.pfs
    journaled = target.journal != "off"
    report = recover(pfs, name) if journaled and not survive else None
    check = fsck(pfs, name, context=CrashContext.from_world(mpi.world, name))
    if not journaled:  # the control: nothing to recover from, the loss must show
        ok = check.lost_bytes > 0
        detail = (
            f"{check.lost_bytes}b lost detected (no journal to recover from)"
            if ok
            else "expected lost bytes, fsck found none"
        )
        return cell(ok, detail, hits, True, fsck=check)

    image = pfs.lookup(name).contents() if pfs.exists(name) else b""
    rollback = step in target.rollback_steps  # the crash beat the last commit
    expected = target.expected(rollback and not survive)
    bad = _first_divergence(
        image, expected, target.victim_range if survive and rollback else range(0)
    )
    at_risk = survives = 0
    if survive:
        survives = int(mpi.trace.get("tcio.ft.survives").total)
    elif target.check_at_risk:
        at_risk = int(mpi.trace.get("faults.data_at_risk").total)
    problem = None
    if bad >= 0 and survive:
        problem = (
            f"survivor image diverges at byte {bad} "
            f"({len(image)}b vs {len(expected)}b {target.image_noun})"
        )
    elif bad >= 0:
        problem = (
            f"recovered image mismatch ({len(image)}b vs "
            f"{len(expected)}b expected)"
        )
    elif not check.clean:
        problem = check.summary()
    elif at_risk:
        problem = f"{at_risk}b flagged data_at_risk in a journaled crash"
    elif survive and survives < 1:
        problem = "run completed but no survive round was recorded"
    elif survive:
        detail = target.survive_detail(mpi, survives, image)
    else:
        detail = (
            f"epoch {report.committed_epoch} recovered, "
            f"{report.replayed_bytes}b replayed, "
            f"{report.skipped_uncommitted} uncommitted + "
            f"{report.torn_records} torn discarded, fsck clean"
        )
    return cell(
        problem is None, problem or detail, hits, not survive,
        recovery=report, fsck=check,
    )


def run_cell(
    step: str,
    *,
    kind: str = "tcio",
    survive: bool = False,
    journal: str = "epoch",
    seed: int = 7,
    **shape,
) -> CrashCell:
    """Run one crash cell (see module doc).

    *kind* picks the target (``"tcio"`` or ``"server"``), *survive* arms
    TCIO FT / delegate failover and demands completion instead of
    abort-and-recover, ``journal="off"`` is the lost-bytes control, and
    *shape* sizes the target: ``aggregation``, ``nranks``,
    ``cores_per_node``, ``victim``, ``reference`` for TCIO; ``nclients``,
    ``nranks``, ``cores_per_node``, ``victim``, ``trace`` for the server.
    An unknown step or victim raises ``ValueError`` before any simulation.
    """
    target = _TARGETS[kind](survive, journal, seed, **shape)
    _check_step(target, step)
    return _run_cell(target, step)


def run_matrix(
    *,
    kind: str = "tcio",
    survive: bool = False,
    steps=None,
    modes=None,
    include_journal_off: bool = True,
    seed: int = 7,
    **shape,
) -> CrashMatrixResult:
    """One campaign: every step × every mode of the target, plus (abort-
    mode TCIO only) the ``journal="off"`` control cell.

    *steps* defaults to all of the target's steps and *modes* to all of
    its aggregation modes (FT and failover run flat only). The reference
    image / request trace is built once per mode and shared by its cells.
    """
    cls = _TARGETS[kind]
    if modes is None:
        modes = cls.modes[:1] if survive else cls.modes
    targets = [
        cls(survive, "epoch", seed, **{**shape, "aggregation": mode})
        for mode in modes
    ]
    steps = cls.steps if steps is None else tuple(steps)
    for step in steps:
        _check_step(cls, step)
    out = CrashMatrixResult(nranks=targets[0].nranks, seed=seed)
    out.cells = [_run_cell(target, step) for target in targets for step in steps]
    if include_journal_off and cls.control_step and not survive:
        out.cells.append(
            run_cell(cls.control_step, kind=kind, journal="off", seed=seed, **shape)
        )
    return out
