"""Half-open byte-extent algebra.

Extents ``[start, stop)`` are the lingua franca of the whole stack: file
views flatten to extents, the PFS lock manager locks extents, two-phase
collective I/O partitions the aggregate extent into file domains, and TCIO's
level-1 buffer tracks the file domain of cached blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True, order=True)
class Extent:
    """A half-open byte range ``[start, stop)`` in a file or buffer."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValueError(f"extent stop < start: [{self.start}, {self.stop})")

    @property
    def length(self) -> int:
        """Byte count of the extent."""
        return self.stop - self.start

    def is_empty(self) -> bool:
        """True when start == stop."""
        return self.stop == self.start

    def align_down(self, granularity: int) -> "Extent":
        """Expand outward to *granularity*-aligned boundaries.

        This is how a stripe-granularity lock manager rounds a byte request
        to whole lock units.
        """
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        start = (self.start // granularity) * granularity
        stop = -(-self.stop // granularity) * granularity
        if self.is_empty():
            stop = start
        return Extent(start, stop)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.start},{self.stop})"


def merge_ranges(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sorted, disjoint ``(lo, hi)`` ranges covering the same points as *pairs*.

    Overlapping and touching ranges coalesce; empty ones are dropped.
    """
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(pair for pair in pairs if pair[0] < pair[1]):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def run_heads(breaks: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of a nonempty sequence,
    given ``breaks[i]``: whether element ``i + 1`` starts a new run."""
    return np.concatenate(([0], np.flatnonzero(breaks) + 1))


def merge_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Where each run of ordered ``[start, start + length)`` pieces begins.

    The array form of merging neighbours: a run is a maximal stretch of
    *consecutive and byte-adjacent* pieces — one piece once merged. Returns
    the index of every run's first piece: the merged starts are
    ``starts[heads]``, the merged lengths ``np.add.reduceat(lengths,
    heads)``. Only neighbours merge, never sorted order: MPI typemaps are
    ordered, and file views rely on that order.
    """
    return run_heads(starts[1:] != starts[:-1] + lengths[:-1])

