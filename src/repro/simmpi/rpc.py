"""Request/reply envelopes: the service-loop idiom over point-to-point.

ViPIOS-style I/O servers (see ``docs/io-server.md``) are persistent rank
coroutines serving a stream of client requests. This module holds the
two pieces servers and clients share:

* a :class:`RpcEnvelope` names the logical requester (a *client id*, not
  a rank — one rank may play many simulated clients), a per-client
  sequence number, an operation, and its arguments;
* an :class:`RpcEndpoint` binds a communicator to a (request, reply)
  tag pair, keeping RPC traffic in its own match space so it can never
  collide with collective or application messages on the same
  communicator, and polls for arrived requests.

Envelopes move as pickled objects (:func:`~repro.simmpi.comm.pack_object`)
with the communicator's own ``isend``/``irecv`` on the endpoint's tags;
the caller owns the wait, so it also owns what a fail-stop interrupt at
that wait means. A client keeps **at most one request in flight** per
logical client, so replies need no correlation ids — MPI's
non-overtaking order per (source, tag) already matches the k-th reply to
the k-th request. Servers interleave :meth:`RpcEndpoint.poll`
(nonblocking arrival check) with receives to stay responsive between
applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simmpi.comm import ANY_SOURCE, Communicator, Status

#: Default tag pair; chosen high so ad-hoc user tags (small ints) never
#: land in the RPC match space by accident.
TAG_REQUEST = 71
TAG_REPLY = 72


@dataclass(frozen=True)
class RpcEnvelope:
    """One request on the wire.

    ``client`` is the logical requester id; ``seq`` its per-client
    sequence number (trace order, used for deterministic payload
    derivation and latency attribution); ``op`` a short verb; ``args``
    a picklable tuple of operands.
    """

    client: int
    seq: int
    op: str
    args: tuple = ()


class RpcEndpoint:
    """One rank's request/reply port on a communicator.

    Both sides construct one over the *same* communicator with the same
    tag pair; rank translation and matching are the communicator's
    problem, so endpoints work unchanged over sub-communicators.
    """

    def __init__(
        self,
        comm: Communicator,
        *,
        tag_request: int = TAG_REQUEST,
        tag_reply: int = TAG_REPLY,
    ):
        self.comm = comm
        self.tag_request = tag_request
        self.tag_reply = tag_reply

    def poll(self) -> Optional[Status]:
        """Nonblocking probe for an arrived, unconsumed request."""
        return self.comm.iprobe(ANY_SOURCE, self.tag_request)
