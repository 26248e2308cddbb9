"""Workload decomposition — Table IV.

"We assume that the lengths of the segments assigned to each process
follows the normal distribution and use the following parameters to
generate 1024 random numbers to represent the lengths of these segments:
Normal, Mu=2048, Sigma=128, Seed=5. These segments are in turn assigned to
the processes in a round-robin fashion."

A *segment* here is one FTT's worth of root-cell work; its length is the
tree's target cell count. ``cell_scale`` shrinks targets for tractable
simulation (DESIGN.md's scaling rule) without changing the distribution's
shape or the round-robin assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.art.ftt import FttTree
from repro.util.errors import BenchmarkError
from repro.util.rng import seeded_rng


def segment_lengths(
    n_segments: int = 1024,
    mu: float = 2048.0,
    sigma: float = 128.0,
    seed: int = 5,
) -> np.ndarray:
    """Table IV's normal segment lengths (clipped to be positive)."""
    if n_segments < 1:
        raise BenchmarkError("need at least one segment")
    rng = np.random.default_rng(seed)
    lengths = rng.normal(mu, sigma, size=n_segments)
    return np.maximum(1.0, lengths)


@dataclass(frozen=True)
class ArtWorkload:
    """The full I/O workload: segments, their trees, and their owners."""

    n_segments: int = 1024
    mu: float = 2048.0
    sigma: float = 128.0
    seed: int = 5
    nvars: int = 2
    oct: int = 8
    cell_scale: int = 32  # divides target cell counts (laptop tractability)

    @cached_property
    def lengths(self) -> np.ndarray:
        """The Table IV normal segment lengths (cached)."""
        return segment_lengths(self.n_segments, self.mu, self.sigma, self.seed)

    def target_cells(self, segment: int) -> int:
        """Scaled tree size of one segment (>= 1 root cell)."""
        return max(1, int(self.lengths[segment] / self.cell_scale))

    def segments_of(self, rank: int, nranks: int) -> list[int]:
        """The segments assigned to *rank* (round-robin)."""
        return list(range(rank, self.n_segments, nranks))

    def build_tree(self, segment: int) -> FttTree:
        """The (deterministic) FTT of one segment.

        Any rank can rebuild any segment's tree bit-identically — the
        restart path uses this to verify what it read.
        """
        rng = seeded_rng(self.seed, "art-tree", segment)
        return FttTree.build_random(
            rng, self.nvars, self.target_cells(segment), oct=self.oct
        )
