"""Flat vs node aggregation ablation: ``python -m repro topo``.

Runs the synthetic benchmark write phase twice per collective method —
``aggregation="flat"`` (the paper's designs as-is) and ``"node"``
(repro.topo's leader-routed intra-node aggregation) — on a multi-node
cluster, and compares the fabric message and connection counts. The
workload block size is ``stripe / ranks_per_node`` so every node's ranks
share each stripe-sized segment: the shape where leader coalescing can
collapse a whole node's cross-node traffic (see docs/topology.md).

``check()`` is the CI gate: node mode must use strictly fewer messages
AND strictly fewer connections than flat for both TCIO and OCIO, while
``run_benchmark`` verifies every run byte-for-byte.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.bench import BenchConfig, Method
from repro.cluster.spec import ClusterSpec
from repro.netsim.model import NetworkSpec
from repro.pfs.spec import LustreSpec
from repro.util.units import GIB, KIB, MIB

#: Methods the ablation compares (vanilla MPI-IO has no collective
#: exchange to aggregate, so it is out of scope).
METHODS = (Method.TCIO, Method.OCIO)

#: Network profiles the ablation cluster can run under. ``default`` is
#: the original ablation fabric; ``rma-heavy`` models a fabric generation
#: with expensive one-sided synchronization (every RMA epoch and message
#: pays a large fixed cost), which is the regime where flat mode's many
#: small per-rank puts lose to node mode's coalesced leader pushes — the
#: axis the campaign explorer's crossover search walks
#: (`repro.campaign.explore`, docs/campaigns.md).
NET_PROFILES: dict[str, dict[str, float]] = {
    "default": {},
    "rma-heavy": {
        "rma_epoch_overhead": 10e-6,
        "rma_message_overhead": 2e-6,
    },
}


def ablation_cluster(
    procs: int, cores_per_node: int = 4, net: str = "default"
) -> ClusterSpec:
    """A small multi-node machine with just enough nodes for *procs*.

    Mirrors the test-suite cluster's constants; self-contained here so the
    CLI path does not depend on the test tree. *net* selects one of
    :data:`NET_PROFILES` (overrides applied on top of the base network).
    """
    if net not in NET_PROFILES:
        raise ValueError(
            f"unknown net profile {net!r} (choose from {sorted(NET_PROFILES)})"
        )
    nodes = -(-procs // cores_per_node)
    cluster = ClusterSpec(
        name="topo-ablation",
        nodes=nodes,
        cores_per_node=cores_per_node,
        memory_per_node=1 * GIB,
        network=NetworkSpec(
            link_bandwidth=1 * GIB,
            latency=1e-6,
            per_message_overhead=0.2e-6,
            connection_setup=2e-6,
            fabric_bandwidth=8 * GIB,
            memcpy_bandwidth=4 * GIB,
            eager_limit=1 * KIB,
            match_overhead=0.1e-6,
            match_queue_overhead=1e-9,
            rma_epoch_overhead=0.5e-6,
            rma_shared_epoch_overhead=0.1e-6,
            rma_message_overhead=0.05e-6,
        ),
        lustre=LustreSpec(
            n_osts=8,
            stripe_size=4 * KIB,
            default_stripe_count=4,
            ost_write_bandwidth=200 * MIB,
            ost_read_bandwidth=600 * MIB,
            ost_write_overhead=5e-6,
            ost_read_overhead=1e-6,
            lock_latency=0.5e-6,
            client_bandwidth=800 * MIB,
        ),
    )
    overrides = NET_PROFILES[net]
    if overrides:
        cluster = dataclasses.replace(
            cluster,
            network=dataclasses.replace(cluster.network, **overrides),
        )
    return cluster


def ablation_config(
    method: Method,
    aggregation: str,
    procs: int,
    cores_per_node: int,
    stripe_size: int,
    len_array: int,
) -> BenchConfig:
    """The node-collapsible workload: block = stripe / ranks_per_node.

    One double-typed array, SIZEaccess sized so each access's block is a
    node's even share of one stripe — consecutive ranks (one node, under
    the block cyclic rank placement) then fill each stripe exactly.
    """
    access = max(1, stripe_size // cores_per_node // 8)
    length = max(1, len_array // access) * access
    return BenchConfig(
        method=method,
        num_arrays=1,
        type_codes="d",
        len_array=length,
        size_access=access,
        nprocs=procs,
        file_name=f"topo_{method.name}_{aggregation}.dat",
        aggregation=aggregation,
    )


@dataclass
class TopoRow:
    """One (method, aggregation) measurement of the write phase."""

    method: str
    aggregation: str
    messages: int
    connections: int
    seconds: float


@dataclass
class TopoAblationData:
    """All four measurements plus the comparison logic."""

    procs: int
    cores_per_node: int
    rows: list[TopoRow] = field(default_factory=list)

    def row(self, method: str, aggregation: str) -> TopoRow:
        """The unique row for (method, aggregation)."""
        for r in self.rows:
            if r.method == method and r.aggregation == aggregation:
                return r
        raise KeyError((method, aggregation))

    def render(self) -> str:
        """A comparison table plus the per-method reduction ratios."""
        lines = [
            f"topo ablation: procs={self.procs} "
            f"({self.cores_per_node} ranks/node, "
            f"{-(-self.procs // self.cores_per_node)} nodes)",
            f"  {'method':<6} {'mode':<5} {'msgs':>8} {'conns':>8} {'seconds':>10}",
        ]
        for r in self.rows:
            lines.append(
                f"  {r.method:<6} {r.aggregation:<5} {r.messages:>8} "
                f"{r.connections:>8} {r.seconds:>10.3g}"
            )
        for m in METHODS:
            flat, node = self.row(m.name, "flat"), self.row(m.name, "node")
            lines.append(
                f"  {m.name}: node/flat reduction "
                f"{flat.messages / max(1, node.messages):.2f}x msgs, "
                f"{flat.connections / max(1, node.connections):.2f}x conns"
            )
        return "\n".join(lines)

    def check(self) -> bool:
        """Node mode strictly beats flat on both counts, for both methods."""
        return all(
            self.row(m.name, "node").messages < self.row(m.name, "flat").messages
            and self.row(m.name, "node").connections
            < self.row(m.name, "flat").connections
            for m in METHODS
        )


def run_topo_ablation(
    procs: int = 64,
    cores_per_node: int = 4,
    len_array: int = 1024,
) -> TopoAblationData:
    """Measure flat vs node write-phase traffic for TCIO and OCIO.

    Point execution lives in :func:`repro.perf.points.run_point`.
    """
    from repro.perf.campaign import CampaignRunner
    from repro.perf.points import Point

    data = TopoAblationData(procs=procs, cores_per_node=cores_per_node)
    points = [
        Point.make(
            "topo", method=method.name, aggregation=aggregation, nprocs=procs,
            cores_per_node=cores_per_node, len_array=len_array,
        )
        for method in METHODS
        for aggregation in ("flat", "node")
    ]
    results = CampaignRunner(1)(points)
    for point in points:
        result = results[point]
        data.rows.append(TopoRow(
            method=str(point.get("method")),
            aggregation=str(point.get("aggregation")),
            messages=result["messages"],
            connections=result["connections"],
            seconds=result["write_seconds"] or 0.0,
        ))
    return data

