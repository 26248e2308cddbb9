"""Every metric name the benchmark emits, declared once.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written out;
``tests/test_metrics.py`` holds the two equal. Two clocks appear here and
the unit says which one a number is on: ``s``/``us`` are *host* time (what
the simulation costs to produce, noisy), ``sim_s`` is *simulated* time (what
the modelled machine would take, the paper's Figs. 5-10, bit-deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from benchmarks.e2e.workloads import WORKLOADS

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: the share of the parent's median by which the
    #: metric may get worse before a change counts as a regression.
    bound: Optional[float] = None
    #: The value repeats bit for bit for one (commit, workload, seed), so
    #: two result sets must agree exactly, not within a bound.
    exact: bool = False


#: Host bounds are what the reference sandbox can resolve, not what one would
#: like: its CPU speed drifts by tens of per cent over seconds, and ten runs
#: of one commit spread 6-17 % (quartile distance over median) on host time.
#: Smaller effects need ``compare`` on alternating pairs (README.md).
END_TO_END: tuple[Metric, ...] = (
    Metric("host_s", "s", "lower", 0.25),
    Metric("host_cpu_s", "s", "lower", 0.25),
    Metric("app_calls_per_host_s", "calls/s", "higher", 0.25),
    # Deterministic per seed; the bound is three times the seed-to-seed
    # spread of ioserver-trace, which a median over several seeds has to
    # ride out. ``compare`` holds same-seed runs to exact equality instead.
    Metric("sim_total_s", "sim_s", "lower", 0.15, exact=True),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Packages of ``src/repro`` that are layers of their own; every other
#: package (memsim, faults, topo, util, cluster, analysis, tenancy, ...)
#: and any time no package can be charged with is ``other``.
LAYERS: tuple[str, ...] = (
    "bench", "art", "tcio", "mpiio", "simmpi", "netsim", "pfs", "sim",
    "obs", "crash", "ioserver", "other",
)
#: Modules of ``repro.tcio`` reported on their own beside the package total.
TCIO_MODULES: tuple[str, ...] = ("file", "level1", "level2", "mapping", "stats")
HOST_LAYERS: tuple[str, ...] = LAYERS + tuple(f"tcio.{m}" for m in TCIO_MODULES)

#: Boundary name -> the functions whose inclusive host time it sums, as
#: (path suffix, function name).
BOUNDARIES: dict[str, tuple[tuple[str, str], ...]] = {
    "tcio.open": (("repro/tcio/file.py", "open"),),
    "tcio.write_at": (("repro/tcio/file.py", "write_at"),),
    "tcio.read_at": (("repro/tcio/file.py", "read_at"),),
    "tcio.fetch": (("repro/tcio/file.py", "fetch"),),
    # Level-1 drains, whether the application asked or a write overflowed.
    "tcio.flush": (
        ("repro/tcio/file.py", "flush"),
        ("repro/tcio/file.py", "_flush_level1"),
    ),
    "tcio.close": (("repro/tcio/file.py", "close"),),
    "mpiio.write_all": (
        ("repro/mpiio/file.py", "write_all"),
        ("repro/mpiio/file.py", "write_at_all"),
    ),
    "mpiio.read_all": (
        ("repro/mpiio/file.py", "read_all"),
        ("repro/mpiio/file.py", "read_at_all"),
    ),
    "mpiio.write_at": (("repro/mpiio/file.py", "write_at"),),
    "mpiio.read_at": (("repro/mpiio/file.py", "read_at"),),
    "simmpi.barrier": (("repro/simmpi/collectives.py", "barrier"),),
    "simmpi.alltoall": (("repro/simmpi/collectives.py", "alltoall"),),
    "simmpi.rma_put": (
        ("repro/simmpi/rma.py", "put"),
        ("repro/simmpi/rma.py", "put_indexed"),
    ),
    "simmpi.rma_get": (
        ("repro/simmpi/rma.py", "get"),
        ("repro/simmpi/rma.py", "get_indexed"),
    ),
    "pfs.write": (
        ("repro/pfs/filesystem.py", "write"),
        ("repro/pfs/filesystem.py", "write_vec"),
        ("repro/pfs/filesystem.py", "write_sieved"),
    ),
    "pfs.read": (("repro/pfs/filesystem.py", "read"),),
    "sim.engine_run": (("repro/sim/engine.py", "run"),),
    "ioserver.serve": (("repro/ioserver/server.py", "serve"),),
}
#: Every registry increment ends in one of these two.
OBS_INCREMENTS = (
    ("repro/obs/metrics.py", "inc"),
    ("repro/obs/metrics.py", "add"),
)


def _count(name: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better, exact=True)


def _sim_s(name: str) -> Metric:
    return Metric(name, "sim_s", "lower", exact=True)


PER_LAYER: tuple[Metric, ...] = (
    # host time of the profiled iteration, by layer
    *(Metric(f"host_self_s.{layer}", "s", "lower") for layer in HOST_LAYERS),
    *(_count(f"host_calls.{layer}") for layer in HOST_LAYERS),
    *(Metric(f"{boundary}.incl_s", "s", "lower") for boundary in BOUNDARIES),
    _count("obs.inc.calls"),
    # simulator core
    _count("sim.events"),
    Metric("sim.host_us_per_event", "us", "lower"),
    # simulated time by phase (None -> 0 where one job interleaves both)
    _sim_s("sim_write_s"),
    _sim_s("sim_read_s"),
    # simulated work and occupancy
    _count("netsim.msgs"),
    Metric("netsim.bytes", "bytes", "lower", exact=True),
    _count("netsim.connections"),
    _count("netsim.intranode_msgs"),
    _sim_s("netsim.nic_tx_busy_s"),
    _sim_s("netsim.nic_rx_busy_s"),
    _sim_s("netsim.core_busy_s"),
    _sim_s("netsim.membus_busy_s"),
    _count("simmpi.sends"),
    _sim_s("simmpi.match_delay_s"),
    _count("simmpi.rma_puts"),
    _count("simmpi.rma_gets"),
    _count("simmpi.rma_put_blocks"),
    _count("simmpi.rma_get_blocks"),
    _count("simmpi.rma_epochs"),
    _count("pfs.write_reqs"),
    _count("pfs.read_reqs"),
    Metric("pfs.bytes_written", "bytes", "lower", exact=True),
    Metric("pfs.bytes_read", "bytes", "lower", exact=True),
    _count("pfs.lock_acquires"),
    _count("pfs.lock_waits"),
    _count("pfs.lock_cache_hits", "higher"),
    _sim_s("pfs.ost_busy_s"),
    Metric("pfs.ost_peak_util", "ratio", "lower", exact=True),
    _sim_s("pfs.link_busy_s"),
    _count("tcio.write_calls"),
    _count("tcio.read_calls"),
    _count("tcio.local_flushes"),
    _count("tcio.remote_flushes"),
    _count("tcio.put_blocks"),
    _count("tcio.get_blocks"),
    _count("tcio.segment_loads"),
    _count("tcio.segment_writebacks"),
    _count("tcio.fetches"),
    Metric("tcio.calls_per_flush", "ratio", "higher", exact=True),
    _count("mpiio.collective_calls"),
    _count("ioserver.admitted", "higher"),
    _count("ioserver.rejected"),
    _count("ioserver.queue_depth_max"),
    _count("ioserver.epochs_committed", "higher"),
    _sim_s("ioserver.write_p99_sim_s"),
    _sim_s("ioserver.fetch_p99_sim_s"),
    # one phase alone, untraced (0 where the driver cannot split from outside)
    Metric("phase.write.host_s", "s", "lower"),
    Metric("phase.read.host_s", "s", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e", "run"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
