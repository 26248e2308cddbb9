"""MPI_Info-style hints controlling the I/O paths (ROMIO conventions)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class IoHints:
    """Tunables for independent and collective I/O.

    Attributes
    ----------
    ds_read / ds_write:
        Enable data sieving for noncontiguous independent reads/writes
        (ROMIO's ``romio_ds_read``/``romio_ds_write``).
    ds_hole_threshold:
        Sieve only when useful bytes are at least this fraction of the
        bounding extent (avoids reading mostly-hole regions).
    cb_nodes:
        Number of aggregators for collective I/O; ``None`` means every
        rank aggregates — the paper's description ("each region is
        assigned to a temporary buffer per process").
    cb_align_stripes:
        Align file-domain boundaries to stripe/lock units, as ROMIO's
        lock-boundary file-domain partitioning does (Liao & Choudhary,
        SC'08 — the paper's reference [19]). On by default: unaligned
        domains make neighbouring aggregators contend for boundary lock
        units; in the size-compressed simulation the domains can shrink
        below one lock unit, which would turn that boundary effect into a
        whole-file serialization chain no full-size system exhibits.
        Disable for the ablation benchmark.
    cb_rounds_buffer:
        If set, two-phase runs in rounds with temp buffers capped at this
        many bytes (ROMIO's ``cb_buffer_size``); ``None`` reproduces the
        paper's memory model where the temp buffer holds the whole file
        domain (the Fig. 6 OOM).
    cb_aggregation:
        ``"flat"`` (default, the paper's OCIO) exchanges data rank-to-
        aggregator over the fabric, counts first. ``"node"`` stages
        remote-bound pieces in a per-node buffer and lets one leader per
        node ship a single coalesced message per remote aggregator over a
        fixed, data-independent edge set (no counts exchange), and spreads
        the ``cb_nodes`` aggregators round-robin across nodes instead of
        packing them onto the lowest ranks. See ``docs/topology.md``.
        Rejected together with ``cb_rounds_buffer``: every round would
        repeat the staging copy and the node barrier, unmeasured.
    """

    ds_read: bool = True
    ds_write: bool = True
    ds_hole_threshold: float = 0.4
    cb_nodes: Optional[int] = None
    cb_align_stripes: bool = True
    cb_rounds_buffer: Optional[int] = None
    cb_aggregation: str = "flat"

    def validate(self) -> None:
        """Raise ValueError on out-of-range hints."""
        if not (0.0 <= self.ds_hole_threshold <= 1.0):
            raise ValueError("ds_hole_threshold must be in [0, 1]")
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise ValueError("cb_nodes must be >= 1")
        if self.cb_rounds_buffer is not None and self.cb_rounds_buffer < 1:
            raise ValueError("cb_rounds_buffer must be >= 1")
        if self.cb_aggregation not in ("flat", "node"):
            raise ValueError("cb_aggregation must be 'flat' or 'node'")
        if self.cb_aggregation == "node" and self.cb_rounds_buffer is not None:
            raise ValueError(
                "cb_aggregation='node' is incompatible with cb_rounds_buffer"
            )
