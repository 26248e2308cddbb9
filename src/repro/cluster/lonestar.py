"""The paper's testbed: TACC Lonestar, as a calibrated scaled preset.

Lonestar 4 (Section V.A): 1,888 nodes x two 6-core processors (12
ranks/node), 24 GB/node, Mellanox InfiniBand QDR fat tree (40 Gbit/s
point-to-point), Lustre with 30 OSTs and 1 MB stripes.

Scaling and calibration
-----------------------
All *data sizes* are divided by ``LONESTAR_SCALE`` (4096): array lengths,
file sizes, node memory. The stripe/lock/segment granularity is divided by
only ``LONESTAR_STRIPE_SCALE`` (32) — "message-count compression" — so
per-run flush/lock/request counts stay laptop-tractable (DESIGN.md §2).

Because sizes and event counts shrink by *different* factors, fixed
per-event costs cannot be derived from full-scale hardware constants by any
single division: the same overhead would be 128x over- or under-weighted
depending on whether its event count scales with the data or with the
process count. The per-event constants below are therefore **calibrated in
the scaled world**: chosen so that the relative weight of each mechanism —
storage-transfer time, per-request storage overhead, two-sided matching
(linear and queue-pressure terms), one-sided epoch costs — reproduces the
orderings and crossovers of the paper's figures. Absolute throughputs are
not comparable to the paper's (and are not a reproduction target); who wins
where is.

``full_scale_lonestar`` keeps the physically-grounded full-size constants
that ``repro info`` prints beside the scaled ones.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.spec import ClusterSpec
from repro.netsim.model import NetworkSpec
from repro.pfs.spec import LustreSpec
from repro.util.units import GIB, KIB, MIB

#: The global data-size dilation used by all experiments.
LONESTAR_SCALE = 4096

#: The stripe/lock granularity divisor (message-count compression).
LONESTAR_STRIPE_SCALE = 32

#: Full-size testbed constants (physical; printed by ``repro info``).
_FULL = ClusterSpec(
    name="lonestar",
    nodes=1888,
    cores_per_node=12,
    memory_per_node=24 * GIB,
    network=NetworkSpec(
        link_bandwidth=3.2 * GIB,  # ~40 Gbit/s QDR, effective payload rate
        latency=2.0e-6,
        per_message_overhead=1.0e-6,
        connection_setup=150.0e-6,  # queue-pair establishment
        fabric_bandwidth=48.0 * GIB,  # shared core / IO-router bisection share
        memcpy_bandwidth=6.0 * GIB,
        eager_limit=12 * KIB,
        match_overhead=1.0e-6,
        match_queue_overhead=40.0e-9,
        rma_epoch_overhead=8.0e-6,
        rma_shared_epoch_overhead=2.0e-6,
        rma_message_overhead=0.2e-6,
    ),
    lustre=LustreSpec(
        n_osts=30,
        stripe_size=1 * MIB,
        default_stripe_count=1,
        ost_write_bandwidth=350.0 * MIB,
        ost_read_bandwidth=1200.0 * MIB,
        ost_write_overhead=8000.0e-6,
        ost_read_overhead=1000.0e-6,
        lock_latency=60.0e-6,
        client_bandwidth=1400.0 * MIB,
    ),
)

#: The calibrated scaled machine every experiment runs on (see module doc).
_CALIBRATED = ClusterSpec(
    name=f"lonestar/{LONESTAR_SCALE}",
    nodes=1888,
    cores_per_node=12,
    memory_per_node=(24 * GIB) // LONESTAR_SCALE,
    network=NetworkSpec(
        link_bandwidth=3.2 * GIB,
        latency=0.2e-6,
        per_message_overhead=0.08e-6,
        connection_setup=1.0e-6,
        fabric_bandwidth=48.0 * GIB,
        memcpy_bandwidth=6.0 * GIB,
        eager_limit=768,
        match_overhead=1.7e-6,
        match_queue_overhead=2.5e-9,
        rma_epoch_overhead=5.5e-6,
        rma_shared_epoch_overhead=0.1e-6,
        rma_message_overhead=0.005e-6,
    ),
    lustre=LustreSpec(
        n_osts=30,
        stripe_size=(1 * MIB) // LONESTAR_STRIPE_SCALE,
        # Shared experiment files stripe over every OST; the paper's Fig.
        # 9/10 discussion ("the number of I/O servers determines the
        # bandwidth of the file system") is about the aggregate.
        default_stripe_count=30,
        ost_write_bandwidth=350.0 * MIB,
        ost_read_bandwidth=1200.0 * MIB,
        ost_write_overhead=8.0e-6,
        ost_read_overhead=1.0e-6,
        lock_latency=0.5e-6,
        client_bandwidth=3.0 * GIB,
        ost_write_noise=0.4,
        ost_read_noise=0.4,
        ost_client_scaling=1.0 / 32.0,
        lock_contention_penalty=2.0e-6,
    ),
    scale=LONESTAR_SCALE,
)


def make_lonestar(*, nranks: Optional[int] = None) -> ClusterSpec:
    """The calibrated scaled Lonestar preset, optionally sized to *nranks*."""
    if nranks is None:
        return _CALIBRATED
    return _CALIBRATED.sized_for(nranks)


def full_scale_lonestar() -> ClusterSpec:
    """The unscaled testbed (what ``repro info`` prints as the model)."""
    return _FULL
