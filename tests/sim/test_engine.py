"""Tests for the virtual-time engine and scheduling semantics."""

import pytest

from repro.sim.engine import Engine
from repro.util.errors import DeadlockError, SimulationError


class TestScheduling:
    def test_actions_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = Engine()
        order = []
        for name in "abcde":
            engine.schedule(1.0, lambda n=name: order.append(n))
        engine.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_times(self):
        engine = Engine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.schedule(7.0, lambda: seen.append(engine.now))
        final = engine.run()
        assert seen == [2.5, 7.0]
        assert final == 7.0

    def test_rejects_negative_delay(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self):
        engine = Engine()
        seen = []
        engine.schedule_at(4.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4.0]

    def test_nested_scheduling(self):
        engine = Engine()
        seen = []

        def outer():
            seen.append(("outer", engine.now))
            engine.schedule(1.0, lambda: seen.append(("inner", engine.now)))

        engine.schedule(2.0, outer)
        engine.run()
        assert seen == [("outer", 2.0), ("inner", 3.0)]

    def test_timer_cancellation(self):
        engine = Engine()
        seen = []
        timer = engine.schedule(1.0, lambda: seen.append("x"))
        engine.schedule(0.5, timer.cancel)
        engine.run()
        assert seen == []

    def test_cannot_run_twice(self):
        engine = Engine()
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()


class TestProcesses:
    def test_process_runs_and_completes(self):
        engine = Engine()
        ran = []
        proc = engine.spawn("p", lambda: ran.append(True))
        engine.run()
        assert ran == [True]
        assert not proc.alive

    def test_sleep_advances_virtual_time(self):
        engine = Engine()
        times = []

        def body():
            from repro.sim.engine import active_process

            proc = active_process()
            times.append(engine.now)
            yield from proc.sleep(2.0)
            times.append(engine.now)
            yield from proc.sleep(3.0)
            times.append(engine.now)

        engine.spawn("p", body)
        engine.run()
        assert times == [0.0, 2.0, 5.0]

    def test_two_processes_interleave_deterministically(self):
        engine = Engine()
        order = []

        def make(name, delay):
            def body():
                from repro.sim.engine import active_process

                for i in range(3):
                    yield from active_process().sleep(delay)
                    order.append((name, engine.now))

            return body

        engine.spawn("a", make("a", 1.0))
        engine.spawn("b", make("b", 1.5))
        engine.run()
        # Ties at t=3.0 break by wake-scheduling order: b's wake was
        # scheduled at t=1.5, a's at t=2.0, so b resumes first.
        assert order == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
            ("a", 3.0),
            ("b", 4.5),
        ]

    def test_exception_in_process_propagates(self):
        engine = Engine()

        def boom():
            raise ValueError("kaput")

        engine.spawn("p", boom)
        with pytest.raises(ValueError, match="kaput"):
            engine.run()

    def test_deadlock_detection_reports_waiters(self):
        engine = Engine()

        def stuck():
            from repro.sim.engine import active_process

            yield from active_process().block("waiting for godot")

        engine.spawn("p", stuck)
        with pytest.raises(DeadlockError, match="godot"):
            engine.run()

    def test_charge_settle_batches_compute(self):
        engine = Engine()
        times = []

        def body():
            from repro.sim.engine import active_process

            proc = active_process()
            for _ in range(10):
                proc.charge(0.1)
            times.append(engine.now)  # charges not yet elapsed
            yield from proc.settle()
            times.append(engine.now)

        engine.spawn("p", body)
        engine.run()
        assert times[0] == 0.0
        assert times[1] == pytest.approx(1.0)

    def test_active_process_outside_context_raises(self):
        from repro.sim.engine import active_process

        with pytest.raises(SimulationError):
            active_process()

