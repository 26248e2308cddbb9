"""Topology discovery and intra-node aggregation (``repro.topo``).

The cost model charges per network message and per connection; both grow
with the number of *ranks* talking across nodes. This package recovers the
cores-per-node factor (Kang et al., "Improving MPI Collective I/O
Performance With Intra-node Request Aggregation"): ranks sharing a node
deposit their outbound pieces into a node-local staging buffer at memory
bandwidth, and one elected leader per node issues a single coalesced
inter-node message per remote target.

* :mod:`repro.topo.topology` — node groups, leader election,
  ``split_by_node`` communicator splitting.
* :mod:`repro.topo.staging` — the node-local staging buffer and the
  interval coalescing the leader applies before the wire.

See ``docs/topology.md`` for the integration into TCIO
(``TcioConfig.aggregation``) and two-phase OCIO (``IoHints.cb_aggregation``).
"""

from repro.topo.staging import (
    StagingBuffer,
    charge_staging_copy,
    coalesce_runs,
)
from repro.topo.topology import NodeTopology, node_leader_ranks, split_by_node

__all__ = [
    "NodeTopology",
    "node_leader_ranks",
    "split_by_node",
    "StagingBuffer",
    "charge_staging_copy",
    "coalesce_runs",
]
