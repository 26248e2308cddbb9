"""The stable ``repro.sim`` public API: coroutine helpers.

Rank programs are generator coroutines; code running inside one reaches
its process (clock, sleep/charge/settle) through
:func:`repro.sim.engine.active_process`.

Coroutine conventions
---------------------
* every simulated-blocking operation is a generator; call it with
  ``yield from`` (``result = yield from op(...)``);
* non-blocking operations (``charge``, probes, engine-side callbacks)
  are plain calls;
* :func:`run_coroutine` bridges APIs that accept either kind of thunk.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any


def run_coroutine(value: Any):
    """Delegate to *value* when it is a generator; else return it as-is.

    The bridge for "maybe blocking" thunks: retry helpers and request
    objects accept both plain callables and coroutines, and callers
    uniformly write ``result = yield from run_coroutine(fn(...))``.
    """
    if isinstance(value, GeneratorType):
        value = yield from value
    return value
