"""Tests for simulated synchronization primitives."""

import pytest

from repro.sim.engine import Engine, active_process
from repro.sim.sync import SimBarrier, SimEvent
from repro.util.errors import SimulationError


def run_procs(*bodies):
    engine = Engine()
    for i, body in enumerate(bodies):
        engine.spawn(f"p{i}", body)
    engine.run()
    return engine


class TestSimEvent:
    def test_fire_wakes_all_waiters_with_value(self):
        ev = SimEvent("e")
        got = []

        def waiter():
            got.append((yield from ev.wait()))

        def firer():
            yield from active_process().sleep(1.0)
            ev.fire(42)

        run_procs(waiter, waiter, firer)
        assert got == [42, 42]

    def test_sticky_event_serves_late_waiters(self):
        ev = SimEvent("e", sticky=True)
        got = []

        def firer():
            ev.fire("done")

        def late():
            yield from active_process().sleep(5.0)
            got.append((yield from ev.wait()))

        run_procs(firer, late)
        assert got == ["done"]

    def test_non_sticky_late_waiter_blocks(self):
        from repro.util.errors import DeadlockError

        ev = SimEvent("e")

        def firer():
            ev.fire()

        def late():
            yield from active_process().sleep(1.0)
            yield from ev.wait()

        with pytest.raises(DeadlockError):
            run_procs(firer, late)


class TestSimBarrier:
    def test_all_leave_together(self):
        bar = SimBarrier(3)
        engine = Engine()
        leave_times = []

        def body(delay):
            def run():
                yield from active_process().sleep(delay)
                yield from bar.wait()
                leave_times.append(engine.now)

            return run

        for d in (1.0, 5.0, 3.0):
            engine.spawn(f"p{d}", body(d))
        engine.run()
        assert leave_times == [5.0, 5.0, 5.0]

    def test_reusable_generations(self):
        bar = SimBarrier(2)
        gens = []

        def body():
            gens.append((yield from bar.wait()))
            gens.append((yield from bar.wait()))

        run_procs(body, body)
        assert sorted(gens) == [0, 0, 1, 1]

    def test_needs_positive_parties(self):
        with pytest.raises(SimulationError):
            SimBarrier(0)
