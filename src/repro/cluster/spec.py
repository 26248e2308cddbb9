"""Cluster description: nodes, memory, interconnect, and file system.

``scale`` records the data-size divisor a preset was built for (see
DESIGN.md and :mod:`repro.cluster.lonestar`); 1 for a full-size machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, TYPE_CHECKING

from repro.netsim.model import NetworkSpec
from repro.pfs.spec import LustreSpec
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.pfs.filesystem import Pfs
    from repro.sim.engine import Engine


@dataclass(frozen=True)
class ClusterSpec:
    """A simulated machine."""

    name: str
    nodes: int
    cores_per_node: int
    memory_per_node: int
    network: NetworkSpec
    lustre: LustreSpec
    scale: int = 1

    @property
    def capacity(self) -> int:
        """Maximum ranks (one per core)."""
        return self.nodes * self.cores_per_node

    def validate(self) -> None:
        """Raise ValueError on inconsistent cluster constants."""
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError("cluster needs nodes and cores")
        if self.memory_per_node < 1:
            raise ValueError("node memory must be positive")
        self.network.validate()
        self.lustre.validate()

    def sized_for(self, nranks: int) -> "ClusterSpec":
        """Shrink the node count to just fit *nranks* (keeps topology rules)."""
        needed = -(-nranks // self.cores_per_node)
        if needed > self.nodes:
            raise ValueError(f"{nranks} ranks exceed {self.capacity} cores")
        return replace(self, nodes=needed)

    def build_pfs(self, engine: "Engine", trace: Optional[TraceRecorder] = None) -> "Pfs":
        """Construct this cluster's parallel file system on *engine*."""
        from repro.pfs.filesystem import Pfs

        return Pfs(engine, self.lustre, n_client_nodes=self.nodes, trace=trace)
