"""Per-handle operation counters (exported for experiments and tests).

``TcioStats`` used to be a bag of integer dataclass fields. It is now a
thin **compatibility view** over a per-handle
:class:`~repro.obs.metrics.MetricsRegistry`: the library increments dotted
metrics (``tcio.flush.remote``, ``tcio.write.bytes``, ...) through
:meth:`TcioStats.inc`, and the legacy surface — ``stats.as_dict()``, the
``flushes`` property — reads the same registry, so existing benchmark
assertions keep working and the registry is the single source of truth.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry

#: Legacy field -> dotted registry metric, in the historical field order
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
        # Counter objects memoized per handle: ``inc`` runs a few times per
        # application I/O call, and the name translation + registry lookup
        # showed up in whole-run profiles.
        self._counters: dict = {}

    def inc(self, fld: str, n: int = 1) -> None:
        """Increment the legacy-named counter *fld* by *n*."""
        counter = self._counters.get(fld)
        if counter is None:
            counter = self.registry.counter(FIELD_METRICS[fld])
            self._counters[fld] = counter
        counter.inc(n)

    def value(self, fld: str) -> int:
        """The legacy-named counter's current integer value."""
        metric = self.registry.get(FIELD_METRICS[fld])
        return int(metric.count) if metric is not None else 0

    @property
    def flushes(self) -> int:
        """Total level-1 drains (local + remote)."""
        return self.value("local_flushes") + self.value("remote_flushes")

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict (the stable legacy key set).

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
