"""FIFO reservation servers — the building block of all time modeling.

A :class:`ReservationServer` represents a rate-limited resource (a NIC port,
the fabric core, an OST disk). Work arriving at time ``t`` starts no earlier
than the end of previously reserved work, runs for
``per_request + nbytes / rate`` seconds, and the server returns the finish
time immediately. Because the simulation submits work in nondecreasing
virtual-time order, this reserves exact FIFO schedules with **one heap event
per message end-to-end** instead of per-hop events — the trick that lets a
1024-rank all-to-all (a million messages) simulate in seconds.
"""

from __future__ import annotations

from repro.util.errors import SimulationError


class ReservationServer:
    """A FIFO fluid resource with fixed service rate.

    Parameters
    ----------
    name: diagnostic label.
    rate: service rate in bytes/second.
    per_request: fixed seconds charged per reservation (seek, DMA setup...).
    """

    __slots__ = ("name", "rate", "per_request", "busy_until", "requests", "busy_time")

    def __init__(self, name: str, rate: float, per_request: float = 0.0):
        if rate <= 0:
            raise SimulationError(f"{name}: rate must be positive")
        if per_request < 0:
            raise SimulationError(f"{name}: per_request must be >= 0")
        self.name = name
        self.rate = rate
        self.per_request = per_request
        self.busy_until = 0.0
        self.requests = 0
        self.busy_time = 0.0

    def reserve(self, arrival: float, nbytes: float, overhead: float | None = None) -> float:
        """Reserve service for *nbytes* arriving at *arrival*; returns finish time.

        Arrivals must be nondecreasing in simulated time (the engine
        guarantees this because reservations are made at the current clock).
        ``overhead`` overrides the server's fixed per-request cost (e.g.
        NIC-offloaded RDMA traffic pays less CPU than two-sided messages).
        """
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative reservation")
        start = arrival if arrival > self.busy_until else self.busy_until
        service = (self.per_request if overhead is None else overhead) + nbytes / self.rate
        self.busy_until = start + service
        self.requests += 1
        self.busy_time += service
        return self.busy_until

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ReservationServer {self.name} busy_until={self.busy_until:.6f}>"
