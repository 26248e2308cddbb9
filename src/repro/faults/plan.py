"""Deterministic, seeded fault injection for the simulated stack.

A :class:`FaultSpec` says *what can go wrong and how often*; a
:class:`FaultPlan` binds one spec + seed to one simulated job and makes
every injection decision from named RNG streams
(``seeded_rng(seed, "faults", scope, stream)``), so identical seeds
reproduce identical injection timelines event-for-event. The plan also
owns the retry loop (:meth:`FaultPlan.retry_call`) so backoff jitter
draws from the same deterministic streams, and it mirrors every decision
into the observability layer: counters ``faults.injected.<kind>``,
``faults.retries`` and ``faults.fallbacks``, plus ``faults.backoff``
spans in the Chrome trace.

Injection kinds
---------------
``net.drop``     transient message loss; the fabric re-sends after a
                 delivery timeout (the message still arrives, late).
``net.spike``    a per-message latency spike on an inter-node link.
``ost.slow``     an OST chosen at plan-install time serves every request
                 ``slow_factor`` times slower.
``ost.stall``    one request of one OST hangs for ``OST_STALL_SECONDS``.
``lock.timeout`` an extent-lock request expired before its grant.
``rma.put`` / ``rma.get``  a one-sided transfer failed retryably (either
                 probabilistically or because the target rank is in
                 ``unreachable_ranks``).
``crash.rank`` / ``crash.node``  a fail-stop process (or whole-node) crash
                 at a named protocol step; unlike every other kind this is
                 not transient — the job aborts and recovery is offline
                 (see ``repro.crash``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, Type, TypeVar, Union

from repro.faults.retry import RetryPolicy
from repro.sim.engine import active_process
from repro.sim.trace import TraceRecorder
from repro.util.errors import PfsError, RetryBudgetExceeded
from repro.util.rng import seeded_rng

T = TypeVar("T")

#: Fixed fault durations, in simulated seconds (no run sets another value).
DROP_TIMEOUT = 5e-4  # retransmission delay of a dropped message
SPIKE_SECONDS = 2e-4  # extra latency of one network spike
OST_STALL_SECONDS = 1e-3  # extra service time of one stalled OST request
RMA_FAIL_DELAY = 5e-5  # origin-side cost of a failed put/get


@dataclass(frozen=True)
class FaultSpec:
    """What can fail, how often, and how recovery is tuned.

    All rates are per-decision probabilities in ``[0, 1]``; a rate of 0
    disables that injection point entirely (and, for ``lock_timeout``,
    a value of 0 disables lock expiry).
    """

    # network (netsim/fabric.py)
    drop_rate: float = 0.0
    spike_rate: float = 0.0
    # storage servers (pfs/ost.py)
    slow_osts: int = 0  # how many OSTs run degraded for the whole job
    slow_factor: float = 8.0
    ost_stall_rate: float = 0.0
    # lock manager (pfs/lockmgr.py); 0 = never time out
    lock_timeout: float = 0.0
    # one-sided transfers (simmpi/rma.py)
    rma_fail_rate: float = 0.0
    unreachable_ranks: Tuple[int, ...] = ()  # RMA targets that always fail
    # fail-stop process crashes (``crash.rank`` / ``crash.node`` kinds).
    # Targeted mode: crash_rank (or every rank of crash_node) dies at the
    # ``crash_after``-th occurrence of protocol step ``crash_step`` (or of
    # any step when None). Probabilistic mode: ``crash_rate`` rolls the
    # seeded ``crash`` stream at every crash point.
    crash_rank: Optional[int] = None
    crash_node: Optional[int] = None
    crash_step: Optional[str] = None
    crash_after: int = 1  # die at the Nth matching step occurrence (1-based)
    crash_rate: float = 0.0
    # diagnostics / recovery
    audit_locks: bool = False
    retry: RetryPolicy = RetryPolicy()

    def validate(self) -> None:
        for name in ("drop_rate", "spike_rate", "ost_stall_rate", "rma_fail_rate",
                     "crash_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise PfsError(f"{name} must be in [0, 1], got {rate}")
        if self.slow_osts < 0 or self.slow_factor < 1.0:
            raise PfsError("slow_osts must be >= 0 and slow_factor >= 1")
        if self.lock_timeout < 0:
            raise PfsError("lock_timeout must be >= 0")
        if self.crash_after < 1:
            raise PfsError(f"crash_after must be >= 1, got {self.crash_after}")
        if self.crash_rank is not None and self.crash_node is not None:
            raise PfsError("crash_rank and crash_node are mutually exclusive")
        self.retry.validate()

    @property
    def crashes_armed(self) -> bool:
        """Whether any fail-stop crash injection is configured."""
        return (
            self.crash_rank is not None
            or self.crash_node is not None
            or self.crash_rate > 0.0
        )

    @classmethod
    def from_rate(cls, rate: float, **overrides) -> "FaultSpec":
        """A uniform spec: every probabilistic injection point runs at *rate*."""
        spec = cls(
            drop_rate=rate,
            spike_rate=rate,
            ost_stall_rate=rate,
            rma_fail_rate=rate,
        )
        return replace(spec, **overrides) if overrides else spec


@dataclass(frozen=True)
class Injection:
    """One injected fault: when, what kind, and the sorted detail items."""

    time: float
    kind: str
    detail: Tuple[Tuple[str, object], ...]


class FaultPlan:
    """One job's bound fault schedule: spec + seed + named RNG streams.

    A plan is single-job state (it accumulates the injection timeline and
    holds per-stream generators); the benchmark harness builds a fresh
    plan per phase with a distinct ``scope`` so the write and read jobs
    draw from independent streams of the same root seed.
    """

    def __init__(self, spec: FaultSpec, seed: int, *, scope: str = "run"):
        spec.validate()
        self.spec = spec
        self.seed = int(seed)
        self.scope = str(scope)
        self.injections: list[Injection] = []
        self.fallbacks: list[Tuple[str, Tuple[Tuple[str, object], ...]]] = []
        #: ``(step, rank) -> occurrences`` of every crash point reached.
        #: Crash campaigns run a crash-free counting pass first and read
        #: this to aim ``crash_after`` at a specific occurrence.
        self.step_hits: Counter = Counter()
        self._crash_matches: Counter = Counter()
        self._streams: dict = {}
        self._engine = None
        self._trace = TraceRecorder()  # until bind() hands over the job's
        self._slow_osts: Optional[frozenset] = None

    def bind(self, engine, trace) -> None:
        """Attach the plan to one job's engine (for timestamps) and trace."""
        self._engine = engine
        self._trace = trace

    # ------------------------------------------------------------------
    # deterministic decisions
    # ------------------------------------------------------------------
    def _rng(self, stream: str):
        gen = self._streams.get(stream)
        if gen is None:
            gen = self._streams[stream] = seeded_rng(
                self.seed, "faults", self.scope, stream
            )
        return gen

    def _decide(self, stream: str, rate: float) -> bool:
        return rate > 0.0 and float(self._rng(stream).random()) < rate

    def _now(self) -> float:
        return self._engine.now if self._engine is not None else 0.0

    def record(self, kind: str, **detail) -> None:
        """Append one injection to the timeline and count it."""
        self.injections.append(
            Injection(self._now(), kind, tuple(sorted(detail.items())))
        )
        self._trace.count(f"faults.injected.{kind}")

    def timeline(self) -> list[Tuple[float, str, Tuple[Tuple[str, object], ...]]]:
        """The injections so far as comparable tuples (reproducibility checks)."""
        return [(i.time, i.kind, i.detail) for i in self.injections]

    def injected(self, kind: str) -> int:
        """How many injections of *kind* the plan has made."""
        return sum(1 for i in self.injections if i.kind == kind)

    # ------------------------------------------------------------------
    # injection points (called by the instrumented layers)
    # ------------------------------------------------------------------
    def network_penalty(self, src: int, dst: int, nbytes: int) -> float:
        """Extra inter-node delivery delay for one message (0.0 = clean)."""
        spec = self.spec
        extra = 0.0
        if self._decide("net.spike", spec.spike_rate):
            self.record("net.spike", src=src, dst=dst)
            extra += SPIKE_SECONDS
        if self._decide("net.drop", spec.drop_rate):
            # A dropped message is retransmitted after a delivery timeout:
            # it still arrives (two-sided matching stays deadlock-free),
            # just a retransmission window later.
            self.record("net.drop", src=src, dst=dst, bytes=nbytes)
            extra += DROP_TIMEOUT
        return extra

    def slow_osts_for(self, n_osts: int) -> frozenset:
        """Which OSTs run degraded (chosen once per plan, recorded)."""
        if self._slow_osts is None:
            k = min(self.spec.slow_osts, n_osts)
            if k > 0:
                picks = self._rng("ost.slow").choice(n_osts, size=k, replace=False)
                chosen = frozenset(int(i) for i in picks)
                for index in sorted(chosen):
                    self.record("ost.slow", ost=index, factor=self.spec.slow_factor)
            else:
                chosen = frozenset()
            self._slow_osts = chosen
        return self._slow_osts

    def ost_stall(self, index: int, write: bool) -> float:
        """Extra service time for one OST request (0.0 = clean)."""
        if self._decide("ost.stall", self.spec.ost_stall_rate):
            self.record("ost.stall", ost=index, write=write)
            return OST_STALL_SECONDS
        return 0.0

    def rma_fault(self, op: str, origin: int, target: int) -> bool:
        """Whether this put/get fails retryably (records the injection)."""
        if origin != target and target in self.spec.unreachable_ranks:
            self.record(f"rma.{op}", origin=origin, target=target, unreachable=True)
            return True
        if self._decide(f"rma.{op}", self.spec.rma_fail_rate):
            self.record(f"rma.{op}", origin=origin, target=target, unreachable=False)
            return True
        return False

    def crash_point(self, step: str, rank: int, node: int) -> bool:
        """Whether *rank* dies (fail-stop) at this occurrence of *step*.

        Every call is tallied into :attr:`step_hits` so counting runs can
        enumerate a workload's crashable moments. Targeted specs count only
        *matching* occurrences (right victim, right step) and fire at the
        ``crash_after``-th; probabilistic specs roll the seeded ``crash``
        stream. The caller (``MpiWorld.crash_point``) performs the kill.
        """
        self.step_hits[(step, rank)] += 1
        spec = self.spec
        if not spec.crashes_armed:
            return False
        if spec.crash_rank is not None or spec.crash_node is not None:
            if spec.crash_rank is not None:
                targeted, key = spec.crash_rank == rank, rank
                kind = "crash.rank"
            else:
                targeted, key = spec.crash_node == node, node
                kind = "crash.node"
            if not targeted or (spec.crash_step is not None and spec.crash_step != step):
                return False
            self._crash_matches[key] += 1
            if self._crash_matches[key] != spec.crash_after:
                return False
            self.record(kind, rank=rank, node=node, step=step)
            return True
        if self._decide("crash", spec.crash_rate):
            self.record("crash.rank", rank=rank, node=node, step=step)
            return True
        return False

    def note_lock_timeout(self, owner: int, extent) -> None:
        """A lock acquire expired (the lock manager reports it here)."""
        self.record("lock.timeout", owner=owner, start=extent.start, stop=extent.stop)

    def note_fallback(self, what: str, **detail) -> None:
        """A degradation event: recovery gave up retrying and took the
        independent path. Counted (``faults.fallbacks``), not part of the
        *injection* timeline (it is a response, not a fault)."""
        self.fallbacks.append((what, tuple(sorted(detail.items()))))
        self._trace.count("faults.fallbacks")

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def retry_call(
        self,
        op: Callable[[int], T],
        *,
        retry_on: Union[Type[BaseException], Tuple[Type[BaseException], ...]],
        what: str,
    ):
        """Run ``op(attempt)`` under the spec's retry policy (coroutine).

        ``op(attempt)`` may be a plain callable *or* return a coroutine
        (the normal case for storage/RMA operations) — both are driven
        uniformly. Failed attempts sleep a jittered exponential backoff on
        the virtual clock (visible as ``faults.backoff`` spans) and count
        ``faults.retries``; once the budget is spent the last error is
        wrapped in :class:`RetryBudgetExceeded`.

        Observability: every executed attempt counts
        ``faults.retry.attempts``, every backoff sleep adds its virtual
        seconds to ``faults.retry.backoff_total``, and budget exhaustion
        emits a ``faults.retry.exhausted`` span naming the operation —
        the overload-analysis signals for how hard recovery worked.
        """
        from repro.sim.api import run_coroutine

        policy = self.spec.retry
        last = policy.max_attempts - 1
        for attempt in range(policy.max_attempts):
            self._trace.count("faults.retry.attempts", 1)
            try:
                return (yield from run_coroutine(op(attempt)))
            except retry_on as exc:
                if attempt == last:
                    with self._trace.span(
                        "faults.retry.exhausted", what=what,
                        attempts=policy.max_attempts,
                    ):
                        pass
                    raise RetryBudgetExceeded(what, policy.max_attempts) from exc
                delay = policy.backoff(attempt, self._rng("retry"))
                self._trace.count("faults.retries")
                self._trace.count("faults.retry.backoff_total", delay)
                with self._trace.span("faults.backoff", what=what, attempt=attempt):
                    yield from active_process().sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover
