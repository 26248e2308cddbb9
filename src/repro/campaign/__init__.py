"""The campaign analysis platform: sweep specs, result store, reports.

``repro.perf.campaign`` knows how to *run* grids of experiment points
(store hits, then a process pool); this package adds the store and
everything around a run that turns hundreds of algorithm×parameter
campaigns into an explainable evaluation (docs/campaigns.md):

* :mod:`repro.campaign.spec` — the declarative sweep-spec format: a
  JSON (or plain python) description of a parameter grid
  over any experiment axis (segment size, cb_nodes, aggregation mode,
  delegate count, QoS policy, …), enumerated into
  :class:`repro.perf.points.Point` grids;
* :mod:`repro.campaign.store` — the one on-disk home of point results,
  store and cache at once: one schema-versioned record per executed
  point, keyed by (experiment, params, config hash), with campaign
  results and ``metrics.json`` documents behind one query API;
* :mod:`repro.campaign.report` — deterministic report generation: ASCII
  and SVG scaling curves, comparison tables, and byte-identical
  regeneration of EXPERIMENTS.md sections from stored results;
* :mod:`repro.campaign.explore` — the adaptive parameter-space
  explorer: crossover-frontier bisection that finds e.g. the
  flat-vs-node aggregation crossover with a fraction of the exhaustive
  grid's point evaluations;
* :mod:`repro.campaign.runner` — glue: run a sweep spec through the
  campaign runner and land every result in the store.

``python -m repro campaign`` is the CLI surface.
"""

from repro.campaign.explore import (
    CrossoverReport,
    ExploreError,
    aggregation_crossover,
    find_crossover,
)
from repro.campaign.report import (
    experiments_section,
    scaling_report,
    store_series,
    store_svg_chart,
    svg_line_chart,
)
from repro.campaign.runner import run_sweep, smoke_spec, smoke_store
from repro.campaign.spec import (
    SpecError,
    SweepSpec,
    grid,
    load_spec,
    parse_spec,
)
from repro.campaign.store import (
    STORE_SCHEMA,
    CampaignStore,
    Record,
    StoreError,
)

__all__ = [
    "STORE_SCHEMA",
    "CampaignStore",
    "CrossoverReport",
    "ExploreError",
    "Record",
    "SpecError",
    "StoreError",
    "SweepSpec",
    "aggregation_crossover",
    "experiments_section",
    "find_crossover",
    "grid",
    "load_spec",
    "parse_spec",
    "run_sweep",
    "scaling_report",
    "smoke_spec",
    "smoke_store",
    "store_series",
    "store_svg_chart",
    "svg_line_chart",
]
