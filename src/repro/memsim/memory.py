"""Per-node memory budgets for simulated allocations.

The paper's Fig. 6/7 headline is qualitative: at the 48 GB dataset the OCIO
benchmark "fails to work" because each process needs the application-level
combine buffer *plus* the two-phase temporary buffer (2 x 0.75 GB on top of
the application's own arrays), exceeding Lonestar's 24 GB/node. TCIO needs
only one segment-sized level-1 buffer plus the level-2 share (0.75 GB+1 MB).

Every substrate registers its simulated buffers here. Exceeding a node's
budget raises :class:`~repro.util.errors.OutOfMemoryError` — the analogue of
the malloc failure/OOM kill the paper observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.util.errors import OutOfMemoryError, SimulationError


@dataclass
class Allocation:
    """A live simulated allocation; free via :meth:`MemoryTracker.free`."""

    node: int
    nbytes: int
    label: str
    freed: bool = False


@dataclass
class _NodeState:
    budget: int
    in_use: int = 0
    high_water: int = 0
    allocations: dict[str, int] = field(default_factory=dict)


class MemoryTracker:
    """Tracks simulated allocations against per-node budgets.

    Ranks map to nodes via ``node_of``; all ranks of one node share its
    budget, as the paper's 12-core Lonestar nodes share 24 GB.
    """

    def __init__(self, node_budget: int, node_of: Sequence[int]):
        if node_budget <= 0:
            raise SimulationError("node budget must be positive")
        self.node_of = list(node_of)
        n_nodes = (max(self.node_of) + 1) if self.node_of else 1
        self._nodes = [_NodeState(budget=node_budget) for _ in range(n_nodes)]

    # ------------------------------------------------------------------
    def node_for_rank(self, rank: int) -> int:
        """The node hosting *rank*."""
        try:
            return self.node_of[rank]
        except IndexError:
            raise SimulationError(f"rank {rank} outside memory tracker") from None

    def allocate(self, rank: int, nbytes: int, label: str) -> Allocation:
        """Charge *nbytes* to *rank*'s node; raises OutOfMemoryError on overflow."""
        if nbytes < 0:
            raise SimulationError("negative allocation")
        node_idx = self.node_for_rank(rank)
        node = self._nodes[node_idx]
        if node.in_use + nbytes > node.budget:
            raise OutOfMemoryError(node_idx, nbytes, node.in_use, node.budget)
        node.in_use += nbytes
        node.high_water = max(node.high_water, node.in_use)
        node.allocations[label] = node.allocations.get(label, 0) + nbytes
        return Allocation(node=node_idx, nbytes=nbytes, label=label)

    def free(self, allocation: Allocation) -> None:
        """Return an allocation's bytes to its node."""
        if allocation.freed:
            raise SimulationError(f"double free of {allocation.label}")
        allocation.freed = True
        node = self._nodes[allocation.node]
        node.in_use -= allocation.nbytes
        node.allocations[allocation.label] -= allocation.nbytes

    # ------------------------------------------------------------------
    def high_water(self, node: Optional[int] = None) -> int:
        """Peak usage of one node, or the max over all nodes."""
        if node is not None:
            return self._nodes[node].high_water
        return max(n.high_water for n in self._nodes)

    def breakdown(self, node: int) -> dict[str, int]:
        """Live bytes per label on *node* (zero entries dropped)."""
        return {k: v for k, v in self._nodes[node].allocations.items() if v}
