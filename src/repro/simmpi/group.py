"""Sub-communicators: MPI_Comm_split and friends.

TCIO and MPI-IO operate on whatever communicator the application passes;
splitting lets applications run independent I/O groups side by side (e.g.
ParColl-style partitioned collective I/O, one of the related-work designs),
and lets tests exercise the libraries on non-world groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from repro.simmpi import collectives
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, CTX_PT2PT, Communicator, Status
from repro.util.errors import MpiError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.mpi import MpiWorld


@dataclass(frozen=True)
class GroupSpec:
    """An ordered subset of world ranks forming a communicator group."""

    world_ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.world_ranks)) != len(self.world_ranks):
            raise MpiError("group contains duplicate ranks")

    @property
    def size(self) -> int:
        """Number of ranks in the group."""
        return len(self.world_ranks)

    def rank_of(self, world_rank: int) -> int:
        """The group-local rank of a world rank."""
        try:
            return self.world_ranks.index(world_rank)
        except ValueError:
            raise MpiError(f"world rank {world_rank} not in group") from None


class SubCommunicator(Communicator):
    """A communicator over a subset of world ranks.

    Messages translate local peer ranks to world ranks transparently, so
    every layer built on :class:`Communicator` (collectives, RMA windows,
    MPI-IO, TCIO) works unchanged on sub-communicators.
    """

    def __init__(
        self,
        world: "MpiWorld",
        group: GroupSpec,
        my_world_rank: int,
        comm_id: object,
    ):
        super().__init__(world, my_world_rank, comm_id)
        self.group = group
        self._local_rank = group.rank_of(my_world_rank)

    # -- identity -------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's group-local rank."""
        return self._local_rank

    @property
    def size(self) -> int:
        """Number of ranks in the group."""
        return self.group.size

    def world_rank(self, local_rank: int) -> int:
        """Translate a group-local rank to a world rank."""
        if not (0 <= local_rank < self.group.size):
            raise MpiError(f"local rank {local_rank} outside group")
        return self.group.world_ranks[local_rank]

    def group_world_ranks(self) -> tuple[int, ...]:
        """World ranks of every member, in group rank order."""
        return self.group.world_ranks

    # -- sources: envelopes carry world ranks, callers see group ranks ----
    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        status: Optional[Status] = None,
        context: int = CTX_PT2PT,
    ):
        """Blocking receive; *status*, if given, names the group-local sender."""
        payload = yield from super().recv(source, tag, status=status, context=context)
        if status is not None:
            status.source = self.group.rank_of(status.source)
        return payload

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, *, context: int = CTX_PT2PT
    ) -> Optional[Status]:
        """Nonblocking probe from a group-local *source* (or ANY_SOURCE);
        the Status names the group-local sender."""
        if source != ANY_SOURCE:
            source = self.world_rank(source)
        status = super().iprobe(source, tag, context=context)
        if status is not None:
            status.source = self.group.rank_of(status.source)
        return status

    def dup(self) -> "SubCommunicator":
        """MPI_Comm_dup of the sub-communicator (collective)."""
        self._dup_seq += 1
        return SubCommunicator(
            self.world, self.group, self._rank, (self._comm_id, self._dup_seq)
        )


def comm_split(comm: Communicator, color: int, key: Optional[int] = None):
    """MPI_Comm_split: partition *comm* by color; order members by key.

    Coroutine. Returns the caller's new communicator (or None for
    ``color < 0``, MPI_UNDEFINED). Collective over *comm*.
    """
    key = comm.rank if key is None else key
    # Every member learns everyone's (color, key, world rank).
    my_world_rank = comm.world_rank(comm.rank) if isinstance(comm, SubCommunicator) else comm.rank
    triples = yield from collectives.allgather(comm, (color, key, my_world_rank))
    if color < 0:
        return None
    members = sorted(
        (k, w) for c, k, w in triples if c == color
    )
    group = GroupSpec(tuple(w for _, w in members))
    # A deterministic id: derived from the parent id and the color, the
    # same on every member (split is collective and colors agree).
    comm._dup_seq += 1
    new_id = (comm._comm_id, "split", comm._dup_seq, color)
    return SubCommunicator(comm.world, group, my_world_rank, new_id)


def comm_from_ranks(comm: Communicator, world_ranks: Sequence[int]):
    """Create a sub-communicator from an explicit rank list (collective).

    Coroutine: ``sub = yield from comm_from_ranks(comm, ranks)``.
    """
    ranks = tuple(world_ranks)
    my_world_rank = comm.world_rank(comm.rank) if isinstance(comm, SubCommunicator) else comm.rank
    color = 0 if my_world_rank in ranks else -1
    key = ranks.index(my_world_rank) if my_world_rank in ranks else 0
    return (yield from comm_split(comm, color, key))
