"""Span tracing on the simulated (virtual) clock.

A :class:`Tracer` collects named intervals — *spans* — on named *tracks*
(one per rank, plus ``nic*``/``ost*``/``mem*`` hardware tracks and the
``engine`` track). Rank-side code opens spans as context managers::

    with tracer.span("tcio.fetch", segments=3):
        ...

while analytic layers (the fabric, the OSTs) that compute an interval's
end time up front record it in one call with :meth:`Tracer.complete`.

Disabled tracing is (near) zero cost: ``span()`` returns a shared no-op
context manager without allocating, and ``complete()``/``instant()``
return immediately, so the instrumented hot paths stay as fast as the
un-instrumented ones. ``Tracer()`` defaults to disabled.

Timestamps come from a bound *clock* (the engine's virtual ``now``).
Re-binding the clock — e.g. the benchmark harness running its write and
read phases as two separate engines — continues the timeline: the new
epoch starts at the previous high-water mark, so spans from successive
jobs never overlap on a track.
"""

from __future__ import annotations

from typing import Callable, Optional


class SpanEvent:
    """One closed span: a named ``[start, end]`` interval on a track."""

    __slots__ = ("name", "track", "start", "end", "args")

    def __init__(self, name: str, track: str, start: float, end: float, args: dict):
        self.name = name
        self.track = track
        self.start = start
        self.end = end
        self.args = args

    @property
    def duration(self) -> float:
        """The span's length in virtual seconds."""
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SpanEvent({self.name!r}, track={self.track!r}, "
            f"start={self.start:.9f}, end={self.end:.9f})"
        )


class _NullSpan:
    """The shared do-nothing context manager disabled tracers hand out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Singleton null span: ``with tracer.span(...)`` costs one method call
#: and an empty ``with`` when tracing is off.
NULL_SPAN = _NullSpan()


class _Span:
    """A live span; closes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "name", "track", "args", "start")

    def __init__(self, tracer: "Tracer", name: str, track: Optional[str], args: dict):
        self._tracer = tracer
        self.name = name
        self.track = track
        self.args = args
        self.start = 0.0

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.start = tracer.now()
        if self.track is None:
            self.track = tracer.resolve_track()
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        tracer.spans.append(
            SpanEvent(self.name, self.track, self.start, tracer.now(), self.args)
        )
        return False


class Tracer:
    """Collects spans and instants against a virtual clock.

    Parameters
    ----------
    enabled: record events (True) or be a no-op shell (False, default).
    clock: zero-arg callable returning the current virtual time; usually
        bound later by the engine via :meth:`bind_clock`.
    """

    __slots__ = ("enabled", "spans", "instants", "track_of", "_clock", "_base", "_hwm")

    def __init__(self, enabled: bool = False, clock: Optional[Callable[[], float]] = None):
        self.enabled = enabled
        self.spans: list[SpanEvent] = []
        self.instants: list[SpanEvent] = []
        #: Resolves the default track for spans opened without one
        #: (TraceRecorder points this at the current simulated process).
        self.track_of: Optional[Callable[[], str]] = None
        self._clock = clock
        self._base = 0.0  # offset of the current clock epoch
        self._hwm = 0.0  # latest timestamp seen across all epochs

    # ------------------------------------------------------------------
    # the clock
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt a new virtual clock, continuing the timeline.

        The new clock's zero maps to the previous high-water mark, so a
        second engine's spans start after the first engine's end.
        """
        self._base = self._hwm
        self._clock = clock

    def now(self) -> float:
        """Current timeline position (epoch base + bound clock)."""
        t = self._base + (self._clock() if self._clock is not None else 0.0)
        if t > self._hwm:
            self._hwm = t
        return t

    def resolve_track(self) -> str:
        """Default track for the calling context."""
        return self.track_of() if self.track_of is not None else "main"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, track: Optional[str] = None, **args):
        """A context manager timing its body on the virtual clock.

        Returns the shared :data:`NULL_SPAN` when disabled — the fast path
        allocates nothing.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, track, args)

    def complete(
        self,
        name: str,
        start: float,
        end: float,
        track: Optional[str] = None,
        **args,
    ) -> None:
        """Record an interval whose bounds were computed analytically.

        *start*/*end* are **clock-space** times (the engine's ``now``
        scale); the tracer maps them onto the continued timeline. *end*
        may lie in the virtual future (e.g. a message's delivery time).
        """
        if not self.enabled:
            return
        base = self._base
        t_end = base + end
        if t_end > self._hwm:
            self._hwm = t_end
        self.spans.append(
            SpanEvent(name, track or self.resolve_track(), base + start, t_end, args)
        )

    def instant(self, name: str, track: Optional[str] = None, **args) -> None:
        """Record a zero-duration marker at the current time."""
        if not self.enabled:
            return
        t = self.now()
        self.instants.append(
            SpanEvent(name, track or self.resolve_track(), t, t, args)
        )

    # ------------------------------------------------------------------
    def tracks(self) -> list[str]:
        """All track names seen so far, sorted."""
        return sorted({e.track for e in self.spans} | {e.track for e in self.instants})
