"""Bounded exponential backoff on the virtual clock.

A :class:`RetryPolicy` describes *how* to retry (attempts, base delay,
growth factor, cap, jitter); the loop that applies it lives on
:meth:`repro.faults.plan.FaultPlan.retry_call` so every backoff sleep is
jittered from the run's named RNG streams and counted/spanned through the
observability layer. :func:`pfs_retry` (and its :func:`pfs_write` /
:func:`pfs_read` spellings) is the storage-side convenience used by TCIO's
writeback and the MPI-IO paths: it turns lock-grant
timeouts into bounded retries, with the *last* attempt blocking without a
timeout so a convoy of waiters still completes (the engine's deadlock
detector remains the backstop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.sim.api import run_coroutine
from repro.util.errors import LockTimeout, PfsError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of one bounded-exponential-backoff loop.

    Attempt ``k`` (0-based) that fails sleeps
    ``min(max_delay, base_delay * factor**k)`` stretched by up to
    ``jitter`` (uniform, from the plan's ``retry`` RNG stream) before the
    next try; after ``max_attempts`` failures the operation surfaces
    :class:`~repro.util.errors.RetryBudgetExceeded`.
    """

    max_attempts: int = 4
    base_delay: float = 50e-6
    factor: float = 2.0
    max_delay: float = 2e-3
    jitter: float = 0.5

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise PfsError("retry policy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise PfsError("retry delays/jitter must be >= 0")
        if self.factor < 1.0:
            raise PfsError("retry factor must be >= 1")

    def backoff(self, attempt: int, rng) -> float:
        """The sleep before retrying after failed attempt *attempt*."""
        delay = min(self.max_delay, self.base_delay * self.factor**attempt)
        if self.jitter:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay


def pfs_retry(world, what: str, op: Callable[[Optional[float]], T]):
    """Run storage operation *op* with lock-timeout retries when faults are on.

    Coroutine: ``result = yield from pfs_retry(...)``. ``op(lock_timeout)``
    performs the actual transfer (itself usually a coroutine), passing the
    timeout through to the PFS client. Without an active fault plan (or
    with lock timeouts disabled) this drives ``op(None)`` directly —
    bit-identical to the pre-fault behaviour. Under a plan, timed-out
    acquires back off and retry; the final attempt waits unboundedly so
    the operation always completes once the queue drains.
    """
    plan = getattr(world, "faults", None)
    if plan is None or plan.spec.lock_timeout <= 0.0:
        return (yield from run_coroutine(op(None)))
    last = plan.spec.retry.max_attempts - 1
    return (yield from plan.retry_call(
        lambda attempt: op(plan.spec.lock_timeout if attempt < last else None),
        retry_on=LockTimeout,
        what=what,
    ))


def pfs_write(world, client, rank: int, file, what: str, offset: int, payload: bytes):
    """One retried PFS write of *file* on *rank*'s behalf (coroutine)."""
    return pfs_retry(
        world,
        what,
        lambda t: client.write(file, offset, payload, owner=rank, lock_timeout=t),
    )


def pfs_read(world, client, rank: int, file, what: str, offset: int, nbytes: int):
    """One retried PFS read of *file* (coroutine returning the bytes)."""
    return pfs_retry(
        world,
        what,
        lambda t: client.read(file, offset, nbytes, owner=rank, lock_timeout=t),
    )
