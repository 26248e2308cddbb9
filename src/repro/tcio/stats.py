"""Per-handle operation counters (exported for experiments and tests).

``TcioStats`` is one TCIO handle's counters, held in that handle's own
:class:`~repro.obs.metrics.MetricsRegistry` under dotted names
(``tcio.flush.remote``, ``tcio.write.bytes``, ...) and addressed by the
short field names of :data:`FIELD_METRICS`. The library bumps them through
:meth:`TcioStats.inc`; the two counters an application call touches
(calls and bytes of the handle's direction) are bound once at open with
:meth:`TcioStats.counter` and bumped as plain attribute adds, so their
values are visible to ``value()``/``as_dict()`` immediately. Readers
(``as_dict()``, ``as_metrics()``, the ``flushes`` property) read the same
registry: it is the single source of truth.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import Counter, MetricsRegistry

#: Field name -> dotted registry metric, in the historical field order
#: (``as_dict`` preserves this order, and its key set is exactly this).
FIELD_METRICS: dict[str, str] = {
    "write_calls": "tcio.write.calls",
    "read_calls": "tcio.read.calls",
    "written_bytes": "tcio.write.bytes",
    "read_bytes": "tcio.read.bytes",
    "local_flushes": "tcio.flush.local",  # level-1 drains landing locally
    "remote_flushes": "tcio.flush.remote",  # level-1 drains shipped via Put
    "put_blocks": "tcio.flush.put_blocks",  # blocks combined into those Puts
    "local_gets": "tcio.fetch.local_gets",
    "get_blocks": "tcio.fetch.get_blocks",
    "flushed_bytes": "tcio.flush.bytes",
    "fetched_bytes": "tcio.fetch.bytes",
    "segment_loads": "tcio.segment.loads",  # whole-segment lazy loads
    "segment_writebacks": "tcio.segment.writebacks",  # whole-segment close writes
    "fetches": "tcio.fetch.rounds",  # explicit or overflow fetch rounds
}


class TcioStats:
    """What one TCIO handle did — the mechanism evidence behind the figures."""

    __slots__ = ("registry", "_counters")

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        # Counter objects memoized per handle: ``inc`` pays the name
        # translation plus registry lookup once per field, not per bump.
        self._counters: dict = {}

    def counter(self, fld: str) -> Counter:
        """The registry counter behind field *fld* (created on first use)."""
        return self.registry.counter(FIELD_METRICS[fld])

    def inc(self, fld: str, n: int = 1) -> None:
        """Increment the counter of field *fld* by *n*."""
        counter = self._counters.get(fld)
        if counter is None:
            counter = self._counters[fld] = self.counter(fld)
        counter.inc(n)

    def value(self, fld: str) -> int:
        """The current integer value of field *fld*'s counter."""
        metric = self.registry.get(FIELD_METRICS[fld])
        return int(metric.count) if metric is not None else 0

    @property
    def flushes(self) -> int:
        """Total level-1 drains (local + remote)."""
        return self.value("local_flushes") + self.value("remote_flushes")

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict (the stable field-name key set).

        Iterates the explicit field table, never ``isinstance`` filtering
        over ``__dict__``, so the key set cannot silently drift (e.g. a
        future ``bool`` field sneaking in as an ``int``).
        """
        return {fld: self.value(fld) for fld in FIELD_METRICS}

    def as_metrics(self) -> dict[str, int]:
        """The same view keyed by dotted registry names (for metrics.json)."""
        return {metric: self.value(fld) for fld, metric in FIELD_METRICS.items()}

    def __repr__(self) -> str:  # pragma: no cover
        return f"TcioStats({self.as_dict()!r})"
