"""The hierarchical metrics registry: counters, gauges, log2 histograms.

Metric names are dotted paths (``tcio.flush.bytes``, ``net.connection``):
the dot hierarchy groups metrics by subsystem, and exports list them sorted
so one layer's counters sit together.

Three metric kinds cover everything the simulated stack reports:

* :class:`Counter` — the (count, total) accumulator the old
  ``TraceRecorder`` used: ``add(amount)`` records one occurrence of
  *amount* units (count += 1, total += amount), while ``inc(n)`` bumps a
  plain monotonic value (count += n, total += n).
* :class:`Gauge` — a last-value sample (queue depth, resident segments).
* :class:`Histogram` — fixed log2 buckets: bucket 0 holds values in
  ``[0, 1]`` and bucket ``k`` holds ``(2**(k-1), 2**k]``, so request-size
  and latency distributions stay cheap and bit-reproducible.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Optional, Union

_NAME_RE = re.compile(r"[a-z0-9_\-]+(\.[a-z0-9_\-]+)*\Z")

#: Number of log2 buckets a histogram holds; bucket 63 tops out above
#: 2**62, far past any simulated byte count or duration in microseconds.
N_BUCKETS = 64


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"bad metric name {name!r}: use dotted lowercase segments "
            "([a-z0-9_-], separated by '.')"
        )


class Counter:
    """A (count, total) accumulator, e.g. (#messages, total bytes)."""

    __slots__ = ("count", "total")
    kind = "counter"

    def __init__(self, count: int = 0, total: float = 0.0):
        self.count = count
        self.total = total

    def add(self, amount: float = 0.0) -> None:
        """Count one occurrence of *amount* units."""
        self.count += 1
        self.total += amount

    def inc(self, n: int = 1) -> None:
        """Bump a plain monotonic value by *n* (count and total together)."""
        self.count += n
        self.total += n

    def as_json(self) -> dict:
        """JSON-ready form for ``metrics.json``."""
        return {"count": self.count, "total": self.total}

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter(count={self.count}, total={self.total})"


class Gauge:
    """A last-value sample (the last ``set`` wins)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def as_json(self) -> dict:
        """JSON-ready form for ``metrics.json``."""
        return {"value": self.value}

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge(value={self.value})"


class Histogram:
    """Fixed log2-bucket histogram of non-negative values.

    Bucket 0 covers ``[0, 1]``; bucket ``k >= 1`` covers ``(2**(k-1), 2**k]``
    (upper bounds are powers of two). Bucketing is exact for integers —
    ``2**k`` lands in bucket ``k`` and ``2**k + 1`` in bucket ``k + 1`` —
    so distribution assertions stay deterministic.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self):
        self.buckets = [0] * N_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @staticmethod
    def bucket_index(value: Union[int, float]) -> int:
        """The bucket a value falls in (ValueError for negatives)."""
        if value < 0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        if value <= 1:
            return 0
        ceiling = value if isinstance(value, int) else math.ceil(value)
        return min(N_BUCKETS - 1, (int(ceiling) - 1).bit_length())

    @staticmethod
    def upper_bound(index: int) -> int:
        """Inclusive upper bound of bucket *index*."""
        return 1 if index == 0 else 2 ** index

    def observe(self, value: Union[int, float]) -> None:
        """Record one sample."""
        self.buckets[self.bucket_index(value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def as_json(self) -> dict:
        """JSON-ready form: only non-empty buckets, keyed by upper bound."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                str(self.upper_bound(i)): n
                for i, n in enumerate(self.buckets)
                if n
            },
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram(count={self.count}, total={self.total})"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of *values* (``0 <= q <= 100``).

    Deterministic and interpolation-free (the classical nearest-rank
    definition), so tail-latency numbers derived from virtual-clock
    samples are bit-stable across hosts. Raises ``ValueError`` on an
    empty sample set or an out-of-range *q*.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample set")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All metrics of one scope (a run, or one TCIO handle), by dotted name.

    Accessors create on first use so instrumentation never needs
    registration boilerplate; asking for an existing name with a different
    kind raises ``TypeError`` (one name, one meaning).
    """

    __slots__ = ("_metrics",)

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # typed accessors (create on first use)
    # ------------------------------------------------------------------
    def _named(self, name: str, cls) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            _check_name(name)
            metric = cls()
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter named *name* (created on first use)."""
        return self._named(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named *name* (created on first use)."""
        return self._named(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram named *name* (created on first use)."""
        return self._named(name, Histogram)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        """The metric named *name*, or None (never creates)."""
        return self._metrics.get(name)

    def names(self) -> Iterator[str]:
        """All metric names, sorted."""
        return iter(sorted(self._metrics))

    def counters(self) -> dict[str, Counter]:
        """Just the counters, as a name -> Counter mapping."""
        return {n: m for n, m in self._metrics.items() if isinstance(m, Counter)}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def flat(self) -> dict:
        """JSON-ready snapshot grouped by kind, names sorted."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in self.names():
            metric = self._metrics[name]
            out[metric.kind + "s"][name] = metric.as_json()
        return out


class MetricCache(dict):
    """Metric objects by name, resolved through *make* on first use.

    ``cache[name]`` is a plain dict lookup once the name is known, so a
    per-request hot path pays no registry hop. Resolution is lazy on
    purpose: asking the registry creates the metric, and creating it at
    construction would put zero-valued metrics into every export. *make*
    is a registry accessor (``registry.counter``); each
    :class:`~repro.sim.trace.TraceRecorder` holds one cache per kind, so
    every component recording into the same job shares it.
    """

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, name: str):
        metric = self[name] = self._make(name)
        return metric
