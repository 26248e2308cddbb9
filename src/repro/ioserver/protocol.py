"""The delegate-server wire protocol, configuration, and placement.

Requests travel as :class:`~repro.simmpi.rpc.RpcEnvelope` objects on
``TAG_REQUEST`` whose ``op`` is a trace verb
(``open``/``write``/``flush``/``fetch``/``close``) plus the
session-control verb ``shutdown``. Replies are small tagged tuples on
``TAG_REPLY``; the first element is one of:

* ``ADMIT`` — the request was placed in the delegate's bounded queue.
  Writes are acknowledged **here**, before the data is applied: that is
  the write-behind contract (durability arrives at the next committed
  epoch, not at the ack).
* ``BUSY`` — admission control rejected the request because the queue is
  at its bound. Deterministic and retryable; the client backs off on the
  virtual clock and resubmits (or surfaces :class:`ServerBusy`).
* ``DONE`` — a collective point (open/flush/close/shutdown) completed.
* ``DATA`` — a fetch was applied; carries the bytes.

Placement is pure local computation: every rank derives the same
:class:`Placement` from ``node_of`` (global knowledge, like
``MPI_Comm_split_type``), so delegates, client ranks, logical-client
assignment and the delegate sub-communicator's member list agree globally
with no messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from repro.topo import node_leader_ranks
from repro.util.errors import IoServerError

#: The request/reply tag pair, chosen high so ad-hoc user tags (small
#: ints) never land in the servers' match space by accident.
TAG_REQUEST = 71
TAG_REPLY = 72

ADMIT = "admit"
BUSY = "busy"
DONE = "done"
DATA = "data"

#: Session-control verb a client sends after its last trace op.
SHUTDOWN = "shutdown"

#: Delegate→delegate session-control verb (failover mode only): the
#: sender drained its expected-client set. Carries the finished client
#: ids, so a survivor adopting the sender's clients after a later death
#: knows none of them will ever redirect. No delegate exits its service
#: loop until every peer is done-or-dead — the drain barrier that keeps
#: a standby alive for clients whose delegate dies at the very last
#: protocol step.
PEER_DONE = "srv-peer-done"


@dataclass(frozen=True)
class IoServerConfig:
    """Tunables of one delegate-server session.

    ``delegates`` is either the string ``"leaders"`` (one delegate per
    node, via :func:`repro.topo.node_leader_ranks`) or an explicit tuple
    of world ranks. ``queue_depth`` bounds each delegate's admitted-but-
    unapplied request queue — the backpressure knob. ``max_retries``
    governs the client-side reaction to ``BUSY``: deterministic
    exponential backoff on the virtual clock, then
    :class:`~repro.util.errors.ServerBusy` once the budget is spent
    (``max_retries=0`` surfaces the error on the first rejection).
    ``journal`` is handed to the delegates' shared
    :class:`~repro.tcio.params.TcioConfig` — ``"epoch"`` is what makes a
    crashed delegate recoverable. ``failover`` arms survive-and-complete
    fault tolerance end to end: the shared TCIO handle opens with
    ``ft=True`` (surviving delegates shrink and finish the flush), a dead
    delegate's clients redirect to the ring-next alive delegate via
    :func:`failover_delegate` and replay their acked-but-uncommitted
    writes there, and the standby adopts them into its expected set —
    clients see retryable redirects, never aborts. Requires
    ``journal="epoch"``; the failover window covers the write phase (a
    delegate death during a read phase still aborts).
    """

    delegates: Union[str, tuple[int, ...]] = "leaders"
    queue_depth: int = 8
    max_retries: int = 24
    journal: str = "epoch"
    failover: bool = False

    def validate(self) -> None:
        if self.failover and self.journal != "epoch":
            raise IoServerError("failover requires journal='epoch'")
        if self.queue_depth < 1:
            raise IoServerError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.max_retries < 0:
            raise IoServerError("max_retries must be >= 0")
        if isinstance(self.delegates, str):
            if self.delegates != "leaders":
                raise IoServerError(
                    f"delegates must be 'leaders' or an explicit rank tuple, "
                    f"got {self.delegates!r}"
                )
        elif not self.delegates:
            raise IoServerError("need at least one delegate rank")


@dataclass(frozen=True)
class Placement:
    """Who serves and who submits, derived identically on every rank."""

    delegates: tuple[int, ...]
    client_ranks: tuple[int, ...]
    #: logical client id -> the world rank playing it
    rank_of_client: tuple[int, ...]
    #: client rank -> its delegate's world rank
    delegate_of_rank: dict[int, int] = field(default_factory=dict)

    def clients_of_rank(self, rank: int) -> tuple[int, ...]:
        """The logical clients a client rank plays, ascending."""
        return tuple(
            c for c, r in enumerate(self.rank_of_client) if r == rank
        )

    def clients_of_delegate(self, delegate: int) -> tuple[int, ...]:
        """The logical clients one delegate serves, ascending."""
        return tuple(
            c
            for c, r in enumerate(self.rank_of_client)
            if self.delegate_of_rank[r] == delegate
        )


def plan_placement(
    node_of: Sequence[int], nclients: int, config: IoServerConfig
) -> Placement:
    """Derive the session's placement from the job's node map.

    Delegates come from the config (node leaders by default); every
    remaining rank is a client rank. Logical clients spread round-robin
    over client ranks; each client rank submits to a same-node delegate
    when one exists, otherwise to ``delegates[i % D]`` by its position
    ``i`` in the client-rank list (load-balanced and deterministic).
    """
    nranks = len(node_of)
    if isinstance(config.delegates, str):
        delegates = node_leader_ranks(node_of)
    else:
        delegates = tuple(sorted(config.delegates))
        bad = [d for d in delegates if not 0 <= d < nranks]
        if bad:
            raise IoServerError(f"delegate ranks {bad} outside the job")
    client_ranks = tuple(r for r in range(nranks) if r not in set(delegates))
    if not client_ranks:
        raise IoServerError(
            f"all {nranks} ranks are delegates; no rank left to run clients"
        )
    if nclients < 1:
        raise IoServerError("need at least one logical client")
    rank_of_client = tuple(
        client_ranks[c % len(client_ranks)] for c in range(nclients)
    )
    delegate_of_rank: dict[int, int] = {}
    for i, rank in enumerate(client_ranks):
        same_node = [d for d in delegates if node_of[d] == node_of[rank]]
        delegate_of_rank[rank] = (
            same_node[0] if same_node else delegates[i % len(delegates)]
        )
    return Placement(
        delegates=delegates,
        client_ranks=client_ranks,
        rank_of_client=rank_of_client,
        delegate_of_rank=delegate_of_rank,
    )


def failover_delegate(
    placement: Placement, delegate: int, dead: set[int]
) -> int:
    """The standby serving *delegate*'s clients once it is in *dead*.

    Ring walk over ``placement.delegates`` starting just past the dead
    delegate's position, first alive delegate wins — pure local
    computation, so redirecting clients and adopting standbys agree with
    no coordination. A delegate not in *dead* is its own standby. Raises
    :class:`IoServerError` when every delegate is dead (nothing left to
    redirect to: the job has genuinely lost the service).
    """
    if delegate not in dead:
        return delegate
    ring = placement.delegates
    start = ring.index(delegate)
    for i in range(1, len(ring) + 1):
        standby = ring[(start + i) % len(ring)]
        if standby not in dead:
            return standby
    raise IoServerError("every delegate is dead; no standby to fail over to")


def adopted_clients(placement: Placement, rank: int, dead: set[int]) -> set[int]:
    """The logical clients rank *rank* adopts given the *dead* delegates.

    A client rank whose delegate died redirects every logical client it
    plays to :func:`failover_delegate`'s standby; this is the standby's
    side of that computation.
    """
    out: set[int] = set()
    for r in placement.client_ranks:
        d = placement.delegate_of_rank[r]
        if d in dead and failover_delegate(placement, d, dead) == rank:
            out.update(placement.clients_of_rank(r))
    return out
