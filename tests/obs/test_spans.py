"""Tracer: span nesting, virtual-time ordering, epoch continuation."""

from repro.obs.spans import NULL_SPAN, Tracer
from repro.sim.trace import TraceRecorder


class FakeClock:
    """A manually-advanced virtual clock."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestDisabled:
    def test_span_returns_shared_null(self):
        t = Tracer()
        assert t.span("a") is NULL_SPAN
        assert t.span("b", x=1) is NULL_SPAN
        with t.span("c"):
            pass
        assert t.spans == []

    def test_complete_and_instant_noops(self):
        t = Tracer(enabled=False)
        t.complete("a", 0.0, 1.0, "rank0")
        t.instant("b", "rank0")
        assert t.spans == [] and t.instants == []

    def test_null_tracer_is_disabled(self):
        # There is no shared null tracer: a component built without a
        # recorder gets a fresh one whose tracer records nothing.
        assert Tracer().enabled is False
        assert TraceRecorder().tracer.enabled is False


class TestSpans:
    def test_nested_spans_record_inner_before_outer(self):
        clock = FakeClock()
        t = Tracer(enabled=True, clock=clock)
        with t.span("outer", "rank0"):
            clock.t = 1.0
            with t.span("inner", "rank0", depth=1):
                clock.t = 3.0
            clock.t = 5.0
        # Inner closes first, so it appends first.
        inner, outer = t.spans
        assert (inner.name, inner.start, inner.end) == ("inner", 1.0, 3.0)
        assert (outer.name, outer.start, outer.end) == ("outer", 0.0, 5.0)
        # Nesting invariant on the virtual clock.
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert inner.args == {"depth": 1}

    def test_default_track_resolved_at_enter(self):
        clock = FakeClock()
        t = Tracer(enabled=True, clock=clock)
        t.track_of = lambda: "rank7"
        with t.span("a"):
            pass
        assert t.spans[0].track == "rank7"

    def test_complete_may_end_in_the_future(self):
        clock = FakeClock()
        t = Tracer(enabled=True, clock=clock)
        t.complete("net.xfer", 2.0, 9.0, "nic0", bytes=64)
        (e,) = t.spans
        assert (e.start, e.end, e.track) == (2.0, 9.0, "nic0")
        assert e.duration == 7.0

    def test_instant_is_zero_duration_at_now(self):
        clock = FakeClock()
        t = Tracer(enabled=True, clock=clock)
        clock.t = 4.0
        t.instant("mark", "rank0")
        (e,) = t.instants
        assert e.start == e.end == 4.0

    def test_tracks_sorted_union(self):
        t = Tracer(enabled=True, clock=FakeClock())
        t.complete("a", 0, 1, "rank1")
        t.instant("b", "nic0")
        assert t.tracks() == ["nic0", "rank1"]


class TestEpochs:
    def test_bind_clock_continues_timeline(self):
        """A second engine's spans start after the first engine's end."""
        t = Tracer(enabled=True)
        first = FakeClock()
        t.bind_clock(first)
        first.t = 10.0
        with t.span("job1", "rank0"):
            first.t = 12.0
        # New engine, clock restarts at zero.
        second = FakeClock()
        t.bind_clock(second)
        with t.span("job2", "rank0"):
            second.t = 3.0
        job1, job2 = t.spans
        assert job1.end == 12.0
        assert job2.start >= job1.end
        assert job2.end == job2.start + 3.0

    def test_complete_in_second_epoch_is_offset(self):
        t = Tracer(enabled=True)
        c1 = FakeClock()
        t.bind_clock(c1)
        c1.t = 5.0
        t.now()  # push the high-water mark to 5
        c2 = FakeClock()
        t.bind_clock(c2)
        t.complete("x", 1.0, 2.0, "rank0")
        (e,) = t.spans
        assert (e.start, e.end) == (6.0, 7.0)

    def test_future_completes_advance_the_hwm(self):
        t = Tracer(enabled=True)
        c1 = FakeClock()
        t.bind_clock(c1)
        t.complete("a", 0.0, 8.0, "nic0")  # delivery in the virtual future
        c2 = FakeClock()
        t.bind_clock(c2)
        t.complete("b", 0.0, 1.0, "nic0")
        a, b = t.spans
        assert b.start >= a.end
