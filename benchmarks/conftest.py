"""Benchmark-suite configuration.

``pytest benchmarks/ --benchmark-only`` runs every table/figure harness at
a reduced grid by default (minutes, qualitative invariants asserted).
Set ``REPRO_FULL=1`` for the paper's full grid (64..1024 processes; tens of
minutes) with the strict shape-acceptance checks — the same campaign
``python -m repro report`` records in EXPERIMENTS.md.

Each experiment point is simulated exactly once per session (results are
deterministic; see tests/integration/test_determinism.py), and
pytest-benchmark times that single run via ``pedantic(rounds=1)``.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.common import FULL, SMOKE, ExperimentScale

#: Reduced-but-meaningful default grid for the benchmark suite.
MID = ExperimentScale(
    name="mid",
    proc_counts=(16, 32, 64),
    len_array=512,
    filesize_lens=(64, 256, 1024, 4096),
    filesize_procs=64,
    art_segments=128,
    art_cell_scale=64,
    art_proc_counts=(16, 32, 64),
)


def full_mode() -> bool:
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return FULL if full_mode() else MID


@pytest.fixture(scope="session")
def is_full(scale) -> bool:
    return scale.name == "full"


def once(benchmark, fn, *args, **kwargs):
    """Time *fn* exactly once (simulations are deterministic)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
