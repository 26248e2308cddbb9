"""The observability hub threaded through simulated runs.

Experiments assert *mechanisms*, not just end-to-end times: e.g. that OCIO's
all-to-all exchange opens O(P^2) point-to-point connections while TCIO's
one-sided flushes open O(P), or that lazy loading coalesces reads.

:class:`TraceRecorder` is the single handle every substrate layer receives.
It now fronts the first-class observability subsystem in :mod:`repro.obs`:

* counters live in a hierarchical :class:`~repro.obs.metrics.MetricsRegistry`
  (``recorder.registry``) — the old ``count``/``get``/``summary`` surface is
  preserved as a thin delegation layer;
* spans go to a :class:`~repro.obs.spans.Tracer` (``recorder.tracer``) on
  the engine's virtual clock, with the current simulated process resolving
  the default track (one track per rank).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import Counter, MetricCache, MetricsRegistry
from repro.obs.spans import Tracer

__all__ = ["Counter", "TraceRecorder"]


def _current_track() -> str:
    """Default span track: the running simulated process, else the engine."""
    from repro.sim.engine import active_process_or_none

    proc = active_process_or_none()
    return proc.name if proc is not None else "engine"


class TraceRecorder:
    """Collects counters and spans."""

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        if self.tracer.track_of is None:
            self.tracer.track_of = _current_track
        #: The registry's counters and histograms by name, for hot paths
        #: that record per request (messages, PFS requests, lock grants).
        self.counters = MetricCache(self.registry.counter)
        self.histograms = MetricCache(self.registry.histogram)

    # ------------------------------------------------------------------
    # counters (legacy surface, now registry-backed)
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 0.0) -> None:
        """Increment counter *name* by one occurrence of *amount* units."""
        self.registry.counter(name).add(amount)

    def get(self, name: str) -> Counter:
        """Counter for *name* without creating it (zero counter if absent)."""
        metric = self.registry.get(name)
        return metric if isinstance(metric, Counter) else Counter()

    def summary(self) -> dict[str, tuple[int, float]]:
        """Mapping of counter name to (count, total)."""
        return {
            name: (c.count, c.total)
            for name, c in sorted(self.registry.counters().items())
        }

    # ------------------------------------------------------------------
    # spans (delegated to the tracer)
    # ------------------------------------------------------------------
    def span(self, name: str, track: Optional[str] = None, **args):
        """Open a virtual-time span (no-op context manager when disabled)."""
        return self.tracer.span(name, track, **args)

    def complete(
        self, name: str, start: float, end: float, track: Optional[str] = None, **args
    ) -> None:
        """Record an analytically-timed interval (clock-space bounds)."""
        self.tracer.complete(name, start, end, track, **args)
