"""ULFM-style fault-tolerance primitives over the simulated MPI layer.

The fail-stop machinery (PR 5) already provides deterministic failure
notification: ``MpiWorld.kill_ranks`` marks victims dead and interrupts
every parked survivor with a catchable :class:`RankUnreachable`, and every
later communication entry involving a dead rank raises the same error.
This module adds what User-Level Failure Mitigation layers on top of
notification — the three calls a program needs to *continue* instead of
aborting:

- :meth:`Communicator.revoke` (``MPI_Comm_revoke``): mark the broken
  communicator unusable so straggling survivors raise
  :class:`CommRevoked` promptly instead of posting into it;
- :func:`shrink` (``MPI_Comm_shrink``): survivors construct a re-numbered
  communicator excluding the dead;
- :func:`agree` (``MPI_Comm_agree``): fault-aware agreement on a bitmask
  that survives failures *during* the agreement itself.

Everything is a generator coroutine on the deterministic engine, and —
crucially — shrink needs **no communication on the broken communicator**:
the dead set is global world state every survivor observes identically, so
all members derive the same survivor group and the same new communicator
id locally, then synchronize once on the *new* communicator's fresh
barrier. Same seed, same kill, same shrink order, every run.
"""

from __future__ import annotations

from typing import Tuple

from repro.simmpi import collectives
from repro.simmpi.comm import Communicator
from repro.simmpi.group import GroupSpec, SubCommunicator
from repro.util.errors import MpiError, RankUnreachable

__all__ = ["failed_ranks", "shrink", "agree"]


def failed_ranks(comm: Communicator) -> Tuple[int, ...]:
    """World ranks of *comm*'s members lost to fail-stop crashes, sorted."""
    dead = comm.world.dead_ranks
    if not dead:
        return ()
    return tuple(sorted(r for r in comm.group_world_ranks() if r in dead))


def shrink(comm: Communicator):
    """``MPI_Comm_shrink``: the survivors' re-numbered communicator.

    Coroutine; every living member of *comm* must call it. The new
    communicator's group is *comm*'s group minus the world's dead set, in
    the parent's rank order, and its id is derived purely from the parent
    id and the sorted dead members — identical on every survivor without
    any exchange, and idempotent (shrinking twice against the same dead
    set yields the same communicator id). The only synchronization is a
    barrier on the *new* communicator, whose shared state is fresh (a
    broken parent barrier may hold stale arrivals from interrupted
    waiters; the new id keys a new one).

    Raises :class:`RankUnreachable` if yet another member dies during the
    entry barrier — callers loop (see :func:`agree`).
    """
    world = comm.world
    dead = failed_ranks(comm)
    survivors = tuple(r for r in comm.group_world_ranks() if r not in world.dead_ranks)
    my_world_rank = comm.world_rank(comm.rank)
    if my_world_rank not in survivors:
        raise MpiError(
            f"rank {my_world_rank} is marked dead and cannot join a shrink"
        )
    new_id = (comm._comm_id, "shrink", dead)
    new_comm = SubCommunicator(world, GroupSpec(survivors), my_world_rank, new_id)
    world.trace.count("ft.shrink", 1)
    yield from collectives.barrier(new_comm)
    return new_comm


def agree(comm: Communicator, flags: int = 0):
    """``MPI_Comm_agree``: fault-aware bitwise-AND agreement on *flags*.

    Coroutine returning ``(agreed_flags, survivor_comm)``. The agreement
    tolerates failures *during* the call: each round shrinks to the
    current survivor set and AND-reduces the flags over the shrunken
    communicator; if a member dies mid-round, the surviving callers catch
    the :class:`RankUnreachable` and start another round. All survivors
    leave with the same flags and the same final communicator.
    """
    current = comm
    while True:
        try:
            current = yield from shrink(current)
            agreed = yield from collectives.allreduce(
                current, int(flags), lambda a, b: a & b
            )
            return agreed, current
        except RankUnreachable:
            continue
