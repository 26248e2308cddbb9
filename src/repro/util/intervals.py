"""Half-open byte-extent algebra.

Extents ``[start, stop)`` are the lingua franca of the whole stack: file
views flatten to extents, the PFS lock manager locks extents, two-phase
collective I/O partitions the aggregate extent into file domains, and TCIO's
level-1 buffer tracks the file domain of cached blocks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

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

    def contains(self, offset: int) -> bool:
        """True when *offset* lies within the extent."""
        return self.start <= offset < self.stop

    def covers(self, other: "Extent") -> bool:
        """True when *other* lies entirely inside this extent."""
        return self.start <= other.start and other.stop <= self.stop

    def overlaps(self, other: "Extent") -> bool:
        """True when the ranges share at least one byte."""
        return self.start < other.stop and other.start < self.stop

    def touches(self, other: "Extent") -> bool:
        """Overlapping or exactly adjacent (mergeable into one extent)."""
        return self.start <= other.stop and other.start <= self.stop

    def intersect(self, other: "Extent") -> "Extent":
        """The overlap of two extents; empty extent at max(start) if disjoint."""
        start = max(self.start, other.start)
        stop = min(self.stop, other.stop)
        if stop < start:
            return Extent(start, start)
        return Extent(start, stop)

    def shift(self, delta: int) -> "Extent":
        """The extent translated by *delta* bytes."""
        return Extent(self.start + delta, self.stop + delta)

    def split_at(self, offset: int) -> tuple["Extent", "Extent"]:
        """Split into ``[start, offset)`` and ``[offset, stop)``."""
        if not (self.start <= offset <= self.stop):
            raise ValueError(f"split point {offset} outside {self}")
        return Extent(self.start, offset), Extent(offset, self.stop)

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


def _start_of(extent: Extent) -> int:
    """Bisect key (module-level: no per-call lambda allocation)."""
    return extent.start


class ExtentSet:
    """A normalized (sorted, disjoint, merged) set of extents.

    Supports union, subtraction, intersection and coverage queries in
    O(n log n). No layer builds one since the staging coalescer moved to
    :func:`merge_ranges`; what remains is the unit-tested algebra.
    """

    def __init__(self, extents: Iterable[Extent] = ()):
        self._extents: list[Extent] = self._normalize(extents)

    @staticmethod
    def _normalize(extents: Iterable[Extent]) -> list[Extent]:
        return [
            Extent(lo, hi) for lo, hi in merge_ranges((e.start, e.stop) for e in extents)
        ]

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    def __len__(self) -> int:
        return len(self._extents)

    def __bool__(self) -> bool:
        return bool(self._extents)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtentSet):
            return NotImplemented
        return self._extents == other._extents

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return "ExtentSet(" + ", ".join(map(str, self._extents)) + ")"

    @property
    def total_length(self) -> int:
        """Sum of member extent lengths."""
        return sum(e.length for e in self._extents)

    def bounding(self) -> Extent:
        """Smallest single extent covering the whole set (empty if empty)."""
        if not self._extents:
            return Extent(0, 0)
        return Extent(self._extents[0].start, self._extents[-1].stop)

    def add(self, extent: Extent) -> None:
        """Insert an extent (renormalizing in place).

        Bisect insertion with a local splice — O(log n) to find the
        affected run plus one list splice — instead of re-sorting the
        whole set per insert.
        """
        if extent.is_empty():
            return
        extents = self._extents
        lo, stop = extent.start, extent.stop
        i = bisect_left(extents, lo, key=_start_of)
        # A left neighbor that overlaps or touches [lo, stop) joins the
        # merge window (members are disjoint, so at most one can).
        if i > 0 and extents[i - 1].stop >= lo:
            i -= 1
            lo = extents[i].start
        # Absorb every member starting inside (or adjacent to) the window,
        # widening it when an absorbed member extends past stop.
        j = i
        n = len(extents)
        while j < n and extents[j].start <= stop:
            if extents[j].stop > stop:
                stop = extents[j].stop
            j += 1
        extents[i:j] = [Extent(lo, stop)]

    def union(self, other: "ExtentSet | Extent") -> "ExtentSet":
        """The normalized union with another set or extent."""
        other_items = [other] if isinstance(other, Extent) else list(other)
        return ExtentSet([*self._extents, *other_items])

    def intersect(self, other: "ExtentSet | Extent") -> "ExtentSet":
        """The normalized intersection with another set or extent.

        Linear two-pointer merge over the two sorted disjoint runs
        (a single ``Extent`` is one run) instead of the old all-pairs
        scan — O(n + m), not O(n * m).
        """
        a_run = self._extents
        b_run = [other] if isinstance(other, Extent) else other._extents
        out: list[Extent] = []
        ai = bi = 0
        na, nb = len(a_run), len(b_run)
        while ai < na and bi < nb:
            a, b = a_run[ai], b_run[bi]
            start = a.start if a.start > b.start else b.start
            stop = a.stop if a.stop < b.stop else b.stop
            if start < stop:
                out.append(Extent(start, stop))
            if a.stop <= b.stop:
                ai += 1
            else:
                bi += 1
        return ExtentSet(out)

    def subtract(self, other: "ExtentSet | Extent") -> "ExtentSet":
        """The set minus another set or extent."""
        other_items = [other] if isinstance(other, Extent) else list(other)
        remaining = list(self._extents)
        for hole in sorted(e for e in other_items if not e.is_empty()):
            next_remaining: list[Extent] = []
            for e in remaining:
                if not e.overlaps(hole):
                    next_remaining.append(e)
                    continue
                if e.start < hole.start:
                    next_remaining.append(Extent(e.start, hole.start))
                if hole.stop < e.stop:
                    next_remaining.append(Extent(hole.stop, e.stop))
            remaining = next_remaining
        return ExtentSet(remaining)

    def covers(self, extent: Extent) -> bool:
        """True when *extent* is fully contained in the set.

        Members are disjoint and merged, so coverage means one single
        member spans the extent — a binary search, no set algebra.
        """
        if extent.is_empty():
            return True
        i = bisect_right(self._extents, extent.start, key=_start_of) - 1
        return i >= 0 and self._extents[i].stop >= extent.stop

    def holes_within(self, extent: Extent) -> "ExtentSet":
        """Gaps of *extent* not covered by the set (data-sieving holes)."""
        return ExtentSet([extent]).subtract(self)
