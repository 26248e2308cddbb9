"""Deterministic discrete-event simulation engine.

The whole reproduction runs on virtual time: rank programs are generator
coroutines resumed directly by the engine loop (no OS threads), and every
blocking operation (message delivery, RMA completion, storage transfer,
lock wait) is an event on the engine's heap. Ties are broken by insertion
order, so simulations replay bit-identically.

Stable public API (see docs/architecture.md):

* :class:`Engine`, :class:`SimProcess` (constructed via
  ``Engine.spawn`` / ``SimProcess.spawn``);
* :func:`active_process` / :func:`active_engine` — documented accessors
  for code running inside a rank program;
* :class:`SimContext` / :func:`context` — the facade handed to rank
  programs that bundles clock + time primitives;
* :func:`run_coroutine` — bridge for maybe-blocking thunks.
"""

from repro.sim.api import SimContext, context, context_or_none, run_coroutine
from repro.sim.engine import (
    Engine,
    ProcessCrashed,
    active_engine,
    active_process,
    active_process_or_none,
    events_executed_total,
)
from repro.sim.process import SimProcess
from repro.sim.sync import SimEvent, SimSemaphore, SimBarrier, SimMutex
from repro.sim.trace import TraceRecorder, Counter

__all__ = [
    "Engine",
    "ProcessCrashed",
    "SimContext",
    "SimProcess",
    "SimEvent",
    "SimSemaphore",
    "SimBarrier",
    "SimMutex",
    "TraceRecorder",
    "Counter",
    "active_engine",
    "active_process",
    "active_process_or_none",
    "context",
    "context_or_none",
    "events_executed_total",
    "run_coroutine",
]
