"""Trace recorder tests."""

from repro.sim.trace import Counter, TraceRecorder


class TestCounter:
    def test_add_accumulates(self):
        c = Counter()
        c.add(10.0)
        c.add(5.0)
        assert c.count == 2
        assert c.total == 15.0


class TestTraceRecorder:
    def test_count_creates_counters(self):
        tr = TraceRecorder()
        tr.count("a", 3)
        tr.count("a", 4)
        tr.count("b")
        assert tr.get("a").count == 2
        assert tr.get("a").total == 7
        assert tr.get("b").count == 1

    def test_get_does_not_create(self):
        tr = TraceRecorder()
        assert tr.get("missing").count == 0
        assert tr.summary() == {}

    def test_summary_sorted(self):
        tr = TraceRecorder()
        tr.count("z", 1)
        tr.count("a", 2)
        assert list(tr.summary()) == ["a", "z"]
        assert tr.summary()["a"] == (1, 2)
