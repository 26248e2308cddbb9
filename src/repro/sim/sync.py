"""Synchronization primitives for simulated processes.

These are *virtual-time* primitives: waiters park via
:meth:`SimProcess.block` and are resumed through the engine heap, so wait
order is deterministic (FIFO) and wakeups carry values. Every waiting
method is a generator coroutine — callers ``yield from`` it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.engine import active_process
from repro.sim.process import SimProcess
from repro.util.errors import SimulationError


class SimEvent:
    """A one-shot or repeating value-carrying event.

    ``wait()`` parks the caller; ``fire(value)`` wakes *all* current waiters
    with that value. If the event was already fired and ``sticky`` is true,
    later waiters return immediately with the stored value.
    """

    def __init__(self, name: str = "event", *, sticky: bool = False):
        self.name = name
        self.sticky = sticky
        self._fired = False
        self._value: Any = None
        self._waiters: Deque[SimProcess] = deque()

    def wait(self):
        """Park the calling process until the next fire (returns its value)."""
        proc = active_process()
        yield from proc.settle()
        if self.sticky and self._fired:
            return self._value
        self._waiters.append(proc)
        return (yield from proc.block(f"wait:{self.name}"))

    def fire(self, value: Any = None) -> None:
        """Wake all current waiters with *value*."""
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, deque()
        for proc in waiters:
            proc.wake(value)


class SimBarrier:
    """An N-party reusable barrier.

    Used by the simulated ``MPI_Barrier`` (plus a latency model layered on
    top in :mod:`repro.simmpi.collectives`).
    """

    def __init__(self, parties: int, name: str = "barrier"):
        if parties < 1:
            raise SimulationError("barrier needs at least one party")
        self.name = name
        self.parties = parties
        self._generation = 0
        self._arrived: Deque[SimProcess] = deque()

    def wait(self):
        """Park until all parties arrive; returns the barrier generation."""
        gen = self._generation
        if len(self._arrived) + 1 == self.parties:
            self._generation += 1
            waiters, self._arrived = self._arrived, deque()
            for proc in waiters:
                proc.wake(gen)
            return gen
        proc = active_process()
        self._arrived.append(proc)
        return (yield from proc.block(f"barrier:{self.name}"))
