"""Fully threaded trees (FTT): the dynamic cell hierarchy of ART.

Each tree starts from one root cell; a refined cell gains 8 children on
the next level (Khokhlov's FTT organizes them as octs with parent/child
threading). Trees are stored level-by-level: per level, per-cell variable
values, refinement flags, and parent links — everything the self-describing
file layout (Fig. 8) records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        trees "of different structures and sizes". Each step draws one leaf
        uniformly from all unrefined cells in (level, cell) order and splits
        it into an oct of children appended to the next level; the children
        interpolate the parent's variables (enough structure for the
        reproduction; real ART solves hydrodynamics here). The draws run
        against per-level leaf lists, and each level's arrays are built
        once at the end.
        """
        tree = cls.root_only(nvars, oct)
        tree.levels[0].variables[:, 0] = rng.normal(size=nvars)
        leaves = [[0]]  # per level: the unrefined cells, ascending
        octs: list[list[int]] = [[]]  # per level: the parent of each oct, in creation order
        n_leaves = total = 1
        while total < target_cells:
            pick = int(rng.integers(n_leaves))
            level = 0
            while pick >= len(leaves[level]):
                pick -= len(leaves[level])
                level += 1
            cell = leaves[level].pop(pick)
            if level + 1 == len(leaves):
                leaves.append([])
                octs.append([])
            first = len(octs[level + 1]) * oct
            leaves[level + 1].extend(range(first, first + oct))
            octs[level + 1].append(cell)
            n_leaves += oct - 1
            total += oct
        offsets = (np.arange(oct, dtype=np.float64) + 1.0) / (oct + 1.0)
        for parents in octs[1:]:
            above = tree.levels[-1]
            split = np.array(parents, dtype=np.int32)
            above.refined[split] = 1
            tree.levels.append(
                FttLevel(
                    variables=(above.variables[:, split, np.newaxis] + offsets).reshape(nvars, -1),
                    refined=np.zeros(len(parents) * oct, dtype=np.uint8),
                    parent=split.repeat(oct),
                )
            )
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
