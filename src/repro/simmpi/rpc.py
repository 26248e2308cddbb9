"""The request envelope of the delegate I/O servers (``repro.ioserver``).

A :class:`RpcEnvelope` names the logical requester (a *client id*, not a
rank — one rank may play many simulated clients), a per-client sequence
number, an operation, and its arguments. It travels by reference like any
object message, priced at :func:`~repro.simmpi.comm.wire_size`, and that
pickle spells this module's path, the class name and the field names:
moving or renaming any of them changes what every request costs on the
simulated wire. That is why the class stays here, unchanged, while the
tags and the protocol around it live in :mod:`repro.ioserver.protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass


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
