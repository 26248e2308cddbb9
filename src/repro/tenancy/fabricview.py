"""Per-job rank-offset views over one shared interconnect fabric.

Every tenancy job keeps its own dense rank space ``0..nranks`` (its
``MpiWorld``, communicators, and RMA windows are untouched), while the
shared :class:`~repro.netsim.fabric.Fabric` spans the concatenated global
rank space. A :class:`JobFabric` translates at the boundary: job-local
rank ``r`` is global rank ``offset + r``. NIC ports, the fabric core, and
per-node memory engines are therefore genuinely contended between jobs —
only the *naming* is virtualized.
"""

from __future__ import annotations

from typing import Callable

from repro.netsim.fabric import Fabric


class JobFabric:
    """One job's offset view of a shared :class:`Fabric`.

    Covers message delivery (``delivery_time``, ``transfer``,
    ``control_delay``) and ``spec``; it has no ``staging_copy``, so node
    aggregation is unsupported under tenancy.
    """

    __slots__ = ("base", "offset", "nranks", "node_of")

    def __init__(self, base: Fabric, offset: int, nranks: int):
        self.base = base
        self.offset = offset
        self.nranks = nranks
        #: Job-local rank -> *global* node id (the slice of the shared
        #: fabric's placement this job occupies).
        self.node_of = list(base.node_of[offset : offset + nranks])

    # -- passthrough ---------------------------------------------------
    @property
    def spec(self):
        return self.base.spec

    # -- rank-translated operations ------------------------------------
    def delivery_time(
        self, src: int, dst: int, nbytes: int, *, rma: bool = False
    ) -> float:
        return self.base.delivery_time(
            src + self.offset, dst + self.offset, nbytes, rma=rma
        )

    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        on_delivered: Callable[[], None],
        *,
        rma: bool = False,
    ) -> float:
        return self.base.transfer(
            src + self.offset, dst + self.offset, nbytes, on_delivered, rma=rma
        )

    def control_delay(self, src: int, dst: int, *, rma: bool = False) -> float:
        return self.base.control_delay(
            src + self.offset, dst + self.offset, rma=rma
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<JobFabric ranks [{self.offset}, {self.offset + self.nranks}) "
            f"of {self.base!r}>"
        )
