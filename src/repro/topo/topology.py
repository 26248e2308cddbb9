"""Node topology: which ranks share a node, and who leads each node.

Placement is already global knowledge in the simulator (``MpiWorld.node_of``
is derived from ``ClusterSpec.cores_per_node``), so discovery needs no
communication — exactly like ``MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)``,
whose result every rank can compute from local hardware information. Only
:func:`split_by_node`, which materializes the node groups as communicators,
is collective.

Leader election is deterministic: the lowest communicator rank on each node
leads it. Every rank computes the same answer with no messages, and the
leader is local rank 0 of the node communicator returned by
:func:`split_by_node` (members are ordered by parent rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.simmpi.comm import Communicator
from repro.simmpi.group import GroupSpec, SubCommunicator
from repro.util.errors import SimulationError


@dataclass(frozen=True)
class NodeTopology:
    """The node placement of one communicator's ranks.

    ``node_of_rank(r)`` maps a *communicator-local* rank to its node id;
    node ids are whatever the fabric uses (they need not be contiguous from
    zero when the communicator spans a subset of nodes).
    """

    _node_of: tuple[int, ...]  # local rank -> node id

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_node_of(cls, node_of: Sequence[int]) -> "NodeTopology":
        """Build from an explicit local-rank -> node mapping."""
        if not node_of:
            raise SimulationError("topology needs at least one rank")
        return cls(tuple(node_of))

    @classmethod
    def from_comm(cls, comm: Communicator) -> "NodeTopology":
        """The topology of *comm*'s ranks (sub-communicators translate)."""
        world = comm.world
        return cls.from_node_of(
            [world.node_of[comm.world_rank(r)] for r in range(comm.size)]
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[int, ...]:
        """The distinct node ids, in ascending order."""
        return tuple(sorted(set(self._node_of)))

    @property
    def n_nodes(self) -> int:
        """Number of distinct nodes."""
        return len(set(self._node_of))

    def node_of_rank(self, rank: int) -> int:
        """The node id hosting local rank *rank*."""
        try:
            return self._node_of[rank]
        except IndexError:
            raise SimulationError(f"rank {rank} outside topology") from None

    def ranks_on_node(self, node: int) -> tuple[int, ...]:
        """All local ranks on *node*, ascending."""
        return tuple(r for r, n in enumerate(self._node_of) if n == node)

    def leader_of(self, node: int) -> int:
        """The node's leader: its lowest local rank."""
        for r, n in enumerate(self._node_of):
            if n == node:
                return r
        raise SimulationError(f"no ranks on node {node}")

    def same_node(self, a: int, b: int) -> bool:
        """True when local ranks *a* and *b* share a node."""
        return self.node_of_rank(a) == self.node_of_rank(b)


def node_leader_ranks(node_of: Sequence[int]) -> tuple[int, ...]:
    """One delegate per node: the lowest rank placed on each node.

    The default placement of :mod:`repro.ioserver` delegate servers —
    node leaders keep client→delegate traffic intra-node wherever a node
    hosts both. Pure local computation (``node_of`` is global knowledge),
    so every rank derives the identical delegate set with no messages;
    returned in ascending rank order.
    """
    first_rank: dict[int, int] = {}
    for rank, node in enumerate(node_of):
        if node not in first_rank:
            first_rank[node] = rank
    return tuple(sorted(first_rank.values()))


def split_by_node(comm: Communicator, topo: NodeTopology | None = None):
    """``MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)``: one communicator per node.

    Collective coroutine over *comm*: ``node_comm = yield from
    split_by_node(comm)``. Members keep their parent order, so the node's
    leader (lowest parent rank) is local rank 0 of the result.

    Unlike the general ``comm_split`` (which allgathers colors, paying
    P log P messages), node membership is hardware information every rank
    already holds — real MPIs derive shared-memory communicators from local
    discovery the same way — so the groups are computed locally and only a
    barrier synchronizes the collective.
    """
    from repro.simmpi import collectives

    topo = topo if topo is not None else NodeTopology.from_comm(comm)
    my_node = topo.node_of_rank(comm.rank)
    group = GroupSpec(
        tuple(comm.world_rank(r) for r in topo.ranks_on_node(my_node))
    )
    # Every member bumps its own dup counter once inside the collective,
    # so the derived id agrees globally (same construction as comm_split).
    comm._dup_seq += 1
    new_id = (comm._comm_id, "node-split", comm._dup_seq, my_node)
    node_comm = SubCommunicator(
        comm.world, group, comm.world_rank(comm.rank), new_id
    )
    yield from collectives.barrier(comm)
    return node_comm
