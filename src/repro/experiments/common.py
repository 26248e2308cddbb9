"""Shared experiment scaffolding: scales, labels, acceptance helpers.

``FULL`` runs the paper's parameter grid through the globally scaled
cluster (LONESTAR_SCALE); ``SMOKE`` is a minutes-not-hours variant for CI
and unit tests that keeps every qualitative mechanism alive (interleaving,
aggregation, OOM point) at tiny sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.lonestar import LONESTAR_SCALE
from repro.util.units import format_size


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing of one experiment campaign."""

    name: str
    #: process counts for the scaling figures (the paper: 64..1024)
    proc_counts: tuple[int, ...] = (64, 128, 256, 512, 1024)
    #: LENarray (elements) for Table II after the global scale-down
    len_array: int = (4 * 2**20) // LONESTAR_SCALE
    #: LENarray sweep for Fig. 6/7 (paper: 1M..64M elements at 64 procs)
    filesize_lens: tuple[int, ...] = tuple(
        (n * 2**20) // LONESTAR_SCALE for n in (1, 4, 16, 64)
    )
    filesize_procs: int = 64
    #: ART workload (Table IV is 1024 segments)
    art_segments: int = 1024
    art_cell_scale: int = 32
    art_proc_counts: tuple[int, ...] = (64, 128, 256, 512, 1024)

FULL = ExperimentScale(name="full")

SMOKE = ExperimentScale(
    name="smoke",
    proc_counts=(4, 8, 16),
    len_array=256,
    filesize_lens=(64, 256, 1024, 4096),
    filesize_procs=8,
    art_segments=24,
    art_cell_scale=128,
    art_proc_counts=(4, 8),
)


def paper_size_label(len_array_scaled: int, nprocs: int, element_bytes: int = 12) -> str:
    """Full-scale dataset-size label (e.g. "768MB", "48GB") for Fig. 6/7."""
    return format_size(len_array_scaled * LONESTAR_SCALE * element_bytes * nprocs)


def widening_gap(a: Sequence[Optional[float]], b: Sequence[Optional[float]]) -> bool:
    """True when the a/b ratio grows from the first to the last defined point."""
    ratios = [
        x / y for x, y in zip(a, b) if x is not None and y is not None and y > 0
    ]
    return len(ratios) >= 2 and ratios[-1] > ratios[0]
