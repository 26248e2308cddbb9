"""``FttTree.build_random`` against the leaf-by-leaf builder it replaced.

The builder used to re-list every leaf of the tree before each draw and
to grow the child level's three arrays by concatenation on every split.
It now keeps per-level leaf lists and builds each level's arrays once at
the end. That may only be cheaper, never different: the same
``rng.normal``/``rng.integers`` draws must pick the same leaves, and every
level's ``variables``, ``refined`` and ``parent`` must come out with the
same dtype, shape and bytes. The old ``refine``, ``iter_leaves`` and
``build_random`` are kept here, verbatim apart from being free functions,
as the oracle; ``tests/art/test_ftt.py`` pins the oracle's own semantics.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.art.decomposition import ArtWorkload
from repro.art.ftt import OCT, FttError, FttLevel, FttTree
from repro.util.rng import seeded_rng


def refine(tree: FttTree, level: int, cell: int) -> None:
    """Split one leaf cell into an oct of children (the oracle)."""
    if not (0 <= level < tree.depth):
        raise FttError(f"no level {level}")
    lv = tree.levels[level]
    if not (0 <= cell < lv.ncells):
        raise FttError(f"no cell {cell} on level {level}")
    if lv.refined[cell]:
        raise FttError(f"cell ({level}, {cell}) is already refined")
    lv.refined[cell] = 1
    if level + 1 == tree.depth:
        tree.levels.append(
            FttLevel(
                variables=np.zeros((tree.nvars, 0), dtype=np.float64),
                refined=np.zeros(0, dtype=np.uint8),
                parent=np.zeros(0, dtype=np.int32),
            )
        )
    child = tree.levels[level + 1]
    parent_vars = lv.variables[:, cell : cell + 1]
    offsets = (np.arange(tree.oct, dtype=np.float64) + 1.0) / (tree.oct + 1.0)
    new_vars = parent_vars + offsets[np.newaxis, :]
    child.variables = np.concatenate([child.variables, new_vars], axis=1)
    child.refined = np.concatenate([child.refined, np.zeros(tree.oct, dtype=np.uint8)])
    child.parent = np.concatenate([child.parent, np.full(tree.oct, cell, dtype=np.int32)])


def iter_leaves(tree: FttTree) -> Iterator[tuple[int, int]]:
    """Yield (level, cell) of every unrefined cell (the oracle)."""
    for level, lv in enumerate(tree.levels):
        for cell in np.flatnonzero(lv.refined == 0):
            yield level, int(cell)


def build_random(
    rng: np.random.Generator, nvars: int, target_cells: int, oct: int = OCT
) -> FttTree:
    """Refine random leaves until >= *target_cells* (the oracle)."""
    tree = FttTree.root_only(nvars, oct)
    tree.levels[0].variables[:, 0] = rng.normal(size=nvars)
    while tree.total_cells < target_cells:
        leaves = list(iter_leaves(tree))
        level, cell = leaves[int(rng.integers(len(leaves)))]
        refine(tree, level, cell)
    return tree


def _levels(tree: FttTree) -> list:
    return [
        [(a.dtype.str, a.shape, a.tobytes()) for a in (lv.variables, lv.refined, lv.parent)]
        for lv in tree.levels
    ]


def assert_same_tree(got: FttTree, want: FttTree) -> None:
    assert (got.nvars, got.oct, got.depth) == (want.nvars, want.oct, want.depth)
    assert _levels(got) == _levels(want)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 600),
    st.integers(1, 3),
    st.integers(2, 8),
)
def test_build_random_matches_the_oracle(seed, target_cells, nvars, oct):
    got = FttTree.build_random(np.random.default_rng(seed), nvars, target_cells, oct)
    want = build_random(np.random.default_rng(seed), nvars, target_cells, oct)
    assert_same_tree(got, want)


def test_every_workload_tree_matches_the_oracle():
    workload = ArtWorkload(seed=0)
    for segment in range(workload.n_segments):
        rng = seeded_rng(workload.seed, "art-tree", segment)
        want = build_random(rng, workload.nvars, workload.target_cells(segment), workload.oct)
        assert_same_tree(workload.build_tree(segment), want)
