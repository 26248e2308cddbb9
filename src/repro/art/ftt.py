"""Fully threaded trees (FTT): the dynamic cell hierarchy of ART.

Each tree starts from one root cell; a refined cell gains 8 children on
the next level (Khokhlov's FTT organizes them as octs with parent/child
threading). Trees are stored level-by-level: per level, per-cell variable
values, refinement flags, and parent links — everything the self-describing
file layout (Fig. 8) records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.util.errors import ReproError

#: children added per refinement (an oct) in real ART
OCT = 8


class FttError(ReproError):
    """Invalid FTT operation."""


@dataclass
class FttLevel:
    """One refinement level of a tree."""

    variables: np.ndarray  # (nvars, ncells) float64
    refined: np.ndarray  # (ncells,) uint8: 1 when the cell has children
    parent: np.ndarray  # (ncells,) int32: index into the previous level (-1 at root)

    @property
    def ncells(self) -> int:
        """Cells on this level."""
        return self.refined.shape[0]

    def copy(self) -> "FttLevel":
        """Deep copy of the level's arrays."""
        return FttLevel(self.variables.copy(), self.refined.copy(), self.parent.copy())


@dataclass
class FttTree:
    """One fully threaded tree rooted at a single root cell.

    ``oct`` is the refinement fan-out: 8 in real ART (an oct of children);
    the paper's Fig. 8 sizing example ({1,2,4,8,16,32} nodes per level)
    implicitly uses 2, so it is configurable.
    """

    nvars: int
    levels: list[FttLevel] = field(default_factory=list)
    oct: int = OCT

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def root_only(cls, nvars: int, oct: int = OCT) -> "FttTree":
        """A tree holding just its (unrefined) root cell."""
        if nvars < 1:
            raise FttError("a tree needs at least one variable")
        if oct < 2:
            raise FttError("refinement fan-out must be >= 2")
        level0 = FttLevel(
            variables=np.zeros((nvars, 1), dtype=np.float64),
            refined=np.zeros(1, dtype=np.uint8),
            parent=np.full(1, -1, dtype=np.int32),
        )
        return cls(nvars=nvars, levels=[level0], oct=oct)

    def refine(self, level: int, cell: int) -> None:
        """Split one leaf cell into an oct of 8 children."""
        if not (0 <= level < self.depth):
            raise FttError(f"no level {level}")
        lv = self.levels[level]
        if not (0 <= cell < lv.ncells):
            raise FttError(f"no cell {cell} on level {level}")
        if lv.refined[cell]:
            raise FttError(f"cell ({level}, {cell}) is already refined")
        lv.refined[cell] = 1
        if level + 1 == self.depth:
            self.levels.append(
                FttLevel(
                    variables=np.zeros((self.nvars, 0), dtype=np.float64),
                    refined=np.zeros(0, dtype=np.uint8),
                    parent=np.zeros(0, dtype=np.int32),
                )
            )
        child = self.levels[level + 1]
        # Children interpolate the parent's variables (enough structure for
        # the reproduction; real ART solves hydrodynamics here).
        parent_vars = lv.variables[:, cell : cell + 1]
        offsets = (np.arange(self.oct, dtype=np.float64) + 1.0) / (self.oct + 1.0)
        new_vars = parent_vars + offsets[np.newaxis, :]
        child.variables = np.concatenate([child.variables, new_vars], axis=1)
        child.refined = np.concatenate(
            [child.refined, np.zeros(self.oct, dtype=np.uint8)]
        )
        child.parent = np.concatenate(
            [child.parent, np.full(self.oct, cell, dtype=np.int32)]
        )

    @classmethod
    def build_random(
        cls,
        rng: np.random.Generator,
        nvars: int,
        target_cells: int,
        oct: int = OCT,
    ) -> "FttTree":
        """Grow a tree by refining random leaves until >= *target_cells*.

        Deterministic given the generator state — how the workload builds
        trees "of different structures and sizes".
        """
        tree = cls.root_only(nvars, oct)
        tree.levels[0].variables[:, 0] = rng.normal(size=nvars)
        while tree.total_cells < target_cells:
            leaves = list(tree.iter_leaves())
            level, cell = leaves[int(rng.integers(len(leaves)))]
            tree.refine(level, cell)
        return tree

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of refinement levels."""
        return len(self.levels)

    @property
    def level_sizes(self) -> list[int]:
        """Cells per level, root first."""
        return [lv.ncells for lv in self.levels]

    @property
    def total_cells(self) -> int:
        """Cells across all levels."""
        return sum(self.level_sizes)

    def iter_leaves(self) -> Iterator[tuple[int, int]]:
        """Yield (level, cell) of every unrefined cell."""
        for level, lv in enumerate(self.levels):
            for cell in np.flatnonzero(lv.refined == 0):
                yield level, int(cell)

    def check_invariants(self) -> None:
        """Structural sanity: children counts match refinement flags and
        parents point at refined cells."""
        for level in range(self.depth - 1):
            lv, child = self.levels[level], self.levels[level + 1]
            expected_children = int(lv.refined.sum()) * self.oct
            if child.ncells != expected_children:
                raise FttError(
                    f"level {level + 1} has {child.ncells} cells, "
                    f"expected {expected_children}"
                )
            if child.ncells and not np.all(lv.refined[child.parent] == 1):
                raise FttError(f"level {level + 1} has a parent that is not refined")
        if self.depth and int(self.levels[-1].refined.sum()) != 0:
            raise FttError("deepest level may not contain refined cells")

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FttTree):
            return NotImplemented
        if (
            self.nvars != other.nvars
            or self.depth != other.depth
            or self.oct != other.oct
        ):
            return False
        for a, b in zip(self.levels, other.levels):
            if not (
                np.array_equal(a.variables, b.variables)
                and np.array_equal(a.refined, b.refined)
                and np.array_equal(a.parent, b.parent)
            ):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FttTree depth={self.depth} cells={self.total_cells} sizes={self.level_sizes}>"
