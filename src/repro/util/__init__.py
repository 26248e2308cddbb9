"""Shared utilities: units, error types, interval algebra, RNG streams, tables.

These helpers are substrate-neutral; every other subpackage may depend on
them, and they depend on nothing but numpy and the standard library.
"""

from repro.util.errors import (
    ReproError,
    SimulationError,
    MpiError,
    PfsError,
    TcioError,
    OutOfMemoryError,
    DeadlockError,
)
from repro.util.units import (
    KIB,
    MIB,
    GIB,
    format_size,
    format_time,
)
from repro.util.intervals import Extent
from repro.util.rng import seeded_rng, derive_seed

__all__ = [
    "ReproError",
    "SimulationError",
    "MpiError",
    "PfsError",
    "TcioError",
    "OutOfMemoryError",
    "DeadlockError",
    "KIB",
    "MIB",
    "GIB",
    "format_size",
    "format_time",
    "Extent",
    "seeded_rng",
    "derive_seed",
]
