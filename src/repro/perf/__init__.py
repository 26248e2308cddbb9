"""Host-performance subsystem: parallel campaigns.

Everything under ``repro.perf`` is about *host* time — how fast the
simulator itself runs — never about simulated time. The tools:

* :mod:`repro.perf.campaign` — a :class:`CampaignRunner` that serves
  the independent experiment points (``fig5``/``fig67``/``fig910``/
  ``topo``/...) from a :class:`repro.campaign.store.CampaignStore` —
  keyed by (experiment, params, config hash), so reruns skip completed
  points — and fans the rest across a ``multiprocessing`` pool;
* :mod:`repro.perf.hostbench` — :func:`~repro.perf.hostbench.calibrate`,
  the host-speed yardstick the reference benchmark
  (``benchmarks/e2e``, the one host-performance gate) records.

The determinism contract is unaffected: a point computes identical
simulated times and identical output bytes whether it runs serially,
in a pool worker, or comes out of the store (asserted in
``tests/perf/test_campaign.py``).
"""

from repro.perf.campaign import CampaignRunner
from repro.perf.points import (
    Point,
    config_hash,
    points_for,
    run_point,
)

__all__ = [
    "CampaignRunner",
    "Point",
    "config_hash",
    "points_for",
    "run_point",
]
