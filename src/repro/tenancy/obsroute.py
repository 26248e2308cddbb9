"""Per-job metric routing for shared simulation substrate.

Per-job components (each job's ``MpiWorld``, its TCIO handles) receive
their own plain :class:`~repro.sim.trace.TraceRecorder`, so their metrics
land in disjoint per-job registries for free. Machine-level components —
the engine, the one ``Pfs`` and each job's ``Fabric``, which the launcher
builds on the run's recorder — receive a :class:`JobTraceHub` instead: a
recorder look-alike that resolves, *on every operation*, which simulated
process is running and routes the metric to that process's job.
Engine-side callbacks (message deliveries, lock releases) that run outside
any process land in the scenario's shared recorder.

The subtlety the proxies exist for: hot paths cache metric *objects* at
construction (``Fabric`` resolves ``net.msg`` once). A cached object must
therefore itself be a router — :class:`_RoutedCounter` and friends hold
only ``(hub, name)`` and defer the registry lookup to call time.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import active_process_or_none
from repro.sim.trace import TraceRecorder


class _RoutedCounter:
    """A counter stand-in resolving the owning job per operation."""

    __slots__ = ("_hub", "_name")

    def __init__(self, hub: "JobTraceHub", name: str):
        self._hub = hub
        self._name = name

    def add(self, amount: float = 0.0) -> None:
        self._hub.active_registry().counter(self._name).add(amount)

    def inc(self, n: int = 1) -> None:
        self._hub.active_registry().counter(self._name).inc(n)


class _RoutedHistogram:
    """A histogram stand-in resolving the owning job per operation."""

    __slots__ = ("_hub", "_name")

    def __init__(self, hub: "JobTraceHub", name: str):
        self._hub = hub
        self._name = name

    def observe(self, value: float) -> None:
        self._hub.active_registry().histogram(self._name).observe(value)


class _RoutedRegistry:
    """Registry facade handing out routed metric objects.

    Only the create-on-use surface shared infrastructure touches;
    analysis code should read the real per-job registries instead.
    """

    __slots__ = ("_hub",)

    def __init__(self, hub: "JobTraceHub"):
        self._hub = hub

    def counter(self, name: str) -> _RoutedCounter:
        return _RoutedCounter(self._hub, name)

    def histogram(self, name: str) -> _RoutedHistogram:
        return _RoutedHistogram(self._hub, name)


class _RoutedTracer:
    """Span-tracer facade delegating to the active job's tracer."""

    __slots__ = ("_hub", "_clock")

    def __init__(self, hub: "JobTraceHub"):
        self._hub = hub
        self._clock = None

    @property
    def enabled(self) -> bool:
        return self._hub.active_recorder().tracer.enabled

    def bind_clock(self, clock) -> None:
        # The engine binds its clock at construction; remember it and
        # re-apply to every recorder registered later.
        self._clock = clock
        for rec in self._hub.all_recorders():
            rec.tracer.bind_clock(clock)

    def apply_clock(self, recorder: TraceRecorder) -> None:
        if self._clock is not None:
            recorder.tracer.bind_clock(self._clock)

    def span(self, name: str, track: Optional[str] = None, **args):
        return self._hub.active_recorder().tracer.span(name, track, **args)

    def complete(self, name, start, end, track=None, **args) -> None:
        self._hub.active_recorder().tracer.complete(name, start, end, track, **args)


class JobTraceHub:
    """The shared-component recorder of a multi-job run.

    Presents the part of the ``TraceRecorder`` duck type shared components
    use (``registry``, ``tracer``, ``count``, ``complete``) but resolves
    the owning job from the currently executing simulated process on every
    call. Register each rank process with :meth:`register_process` at
    spawn time.
    """

    def __init__(self):
        #: Fallback recorder for engine-context work (deliveries, timer
        #: callbacks) and anything before/after the jobs themselves.
        self.shared = TraceRecorder()
        self._recorders: dict[str, TraceRecorder] = {}
        self._by_proc: dict = {}
        self.registry = _RoutedRegistry(self)
        self.tracer = _RoutedTracer(self)

    # -- wiring --------------------------------------------------------
    def add_job(self, job: str) -> TraceRecorder:
        """A fresh private recorder for *job*."""
        recorder = self._recorders[job] = TraceRecorder()
        self.tracer.apply_clock(recorder)
        return recorder

    def register_process(self, proc, job: str) -> None:
        """Attribute simulated process *proc* to *job* for routing."""
        self._by_proc[proc] = self._recorders[job]

    def all_recorders(self) -> list[TraceRecorder]:
        """Every registered recorder plus the shared fallback."""
        return [self.shared, *self._recorders.values()]

    # -- routing -------------------------------------------------------
    def active_recorder(self) -> TraceRecorder:
        """The recorder owning the currently executing process."""
        proc = active_process_or_none()
        if proc is None:
            return self.shared
        return self._by_proc.get(proc, self.shared)

    def active_registry(self):
        return self.active_recorder().registry

    # -- TraceRecorder surface ----------------------------------------
    def count(self, name: str, amount: float = 0.0) -> None:
        self.active_recorder().count(name, amount)

    def complete(self, name, start, end, track=None, **args) -> None:
        self.tracer.complete(name, start, end, track, **args)
