"""repro.obs — the observability subsystem for the simulated stack.

One public surface for everything a run can report about itself:

* :mod:`repro.obs.metrics` — hierarchical :class:`MetricsRegistry` of
  dotted-name counters, gauges, and log2-bucket histograms;
* :mod:`repro.obs.spans` — the virtual-clock span :class:`Tracer` every
  layer emits intervals into (zero cost when disabled);
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, ASCII
  timelines, and ``metrics.json`` snapshots;
* :mod:`repro.obs.runner` — the ``python -m repro trace ...`` entry
  point that runs a scaled-down experiment with tracing on.

Layers receive these through :class:`repro.sim.trace.TraceRecorder`,
which bundles one registry and one tracer per run.
"""

from repro.obs.export import (
    ascii_timeline,
    chrome_trace,
    metrics_json,
    track_ids,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import (
    N_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import NULL_SPAN, SpanEvent, Tracer

__all__ = [
    "N_BUCKETS",
    "NULL_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanEvent",
    "Tracer",
    "ascii_timeline",
    "chrome_trace",
    "metrics_json",
    "track_ids",
    "write_chrome_trace",
    "write_metrics_json",
]
