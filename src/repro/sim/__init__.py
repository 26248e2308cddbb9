"""Deterministic discrete-event simulation engine.

The whole reproduction runs on virtual time: rank programs are generator
coroutines resumed directly by the engine loop (no OS threads), and every
blocking operation (message delivery, RMA completion, storage transfer,
lock wait) is an event on the engine's heap. Ties are broken by insertion
order, so simulations replay bit-identically.

Stable public API (see docs/architecture.md):

* :class:`Engine`, :class:`SimProcess` (constructed via
  ``Engine.spawn``);
* :func:`active_process` / :func:`active_engine` — documented accessors
  for code running inside a rank program;
* :func:`run_coroutine` — bridge for maybe-blocking thunks.
"""

from repro.sim.api import run_coroutine
from repro.sim.engine import (
    Engine,
    ProcessCrashed,
    active_engine,
    active_process,
    active_process_or_none,
    events_executed_total,
)
from repro.sim.process import SimProcess
from repro.sim.sync import SimEvent, SimBarrier
from repro.sim.trace import TraceRecorder, Counter

__all__ = [
    "Engine",
    "ProcessCrashed",
    "SimProcess",
    "SimEvent",
    "SimBarrier",
    "TraceRecorder",
    "Counter",
    "active_engine",
    "active_process",
    "active_process_or_none",
    "events_executed_total",
    "run_coroutine",
]
