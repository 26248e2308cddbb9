"""Benchmark configuration — Table I of the paper.

======  =============================================================
method  0: OCIO; 1: TCIO; 2: MPI-IO
NUMarray  number of arrays within each process
TYPEarray comma-separated type codes (c,s,i,f,d), e.g. "i,d"
LENarray  length of the arrays (elements)
SIZEaccess array elements per I/O access
======  =============================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.simmpi.datatypes import Primitive, type_from_code
from repro.util.errors import BenchmarkError


class Method(enum.Enum):
    """Table I's ``method`` parameter."""

    OCIO = 0
    TCIO = 1
    MPIIO = 2

    @classmethod
    def parse(cls, value: "Method | int | str") -> "Method":
        """Accept a Method, a Table I integer code, or a name string."""
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(value)
        text = value.strip()
        if text.isdigit():
            try:
                return cls(int(text))
            except ValueError:
                raise BenchmarkError(f"unknown method code {text!r}") from None
        try:
            return cls[text.upper().replace("-", "")]
        except KeyError:
            raise BenchmarkError(f"unknown method {value!r}") from None


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run's parameters (Table I), plus the process count."""

    method: Method = Method.TCIO
    num_arrays: int = 2
    type_codes: str = "i,d"
    len_array: int = 3
    size_access: int = 1
    nprocs: int = 2
    file_name: str = "bench.dat"
    #: Intra-node aggregation mode: "flat" (the paper's designs as-is) or
    #: "node" (route cross-node traffic through per-node leaders — maps to
    #: TcioConfig.aggregation and IoHints.cb_aggregation; docs/topology.md).
    aggregation: str = "flat"
    #: TCIO durability mode: "off" (the paper's design) or "epoch" (the
    #: journaled two-phase flush protocol — maps to TcioConfig.journal;
    #: docs/faults.md). Ignored by OCIO/MPI-IO methods.
    journal: str = "off"
    #: TCIO level-2 segment bytes; ``None`` keeps the paper's rule
    #: (segment = the file system's lock granularity — maps to
    #: TcioConfig.segment_size). A campaign sweep axis (docs/campaigns.md).
    segment_bytes: "int | None" = None
    #: OCIO collective-buffering aggregator count; ``None`` keeps the
    #: paper's every-rank-aggregates description (maps to IoHints.cb_nodes).
    #: A campaign sweep axis. Ignored by TCIO/MPI-IO methods.
    cb_nodes: "int | None" = None

    def __post_init__(self) -> None:
        if self.aggregation not in ("flat", "node"):
            raise BenchmarkError("aggregation must be 'flat' or 'node'")
        if self.journal not in ("off", "epoch"):
            raise BenchmarkError("journal must be 'off' or 'epoch'")
        if self.segment_bytes is not None and self.segment_bytes < 1:
            raise BenchmarkError("segment_bytes must be >= 1")
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise BenchmarkError("cb_nodes must be >= 1")
        if self.num_arrays < 1:
            raise BenchmarkError("NUMarray must be >= 1")
        if self.len_array < 1:
            raise BenchmarkError("LENarray must be >= 1")
        if self.size_access < 1:
            raise BenchmarkError("SIZEaccess must be >= 1")
        if self.len_array % self.size_access != 0:
            raise BenchmarkError("LENarray must be a multiple of SIZEaccess")
        if self.nprocs < 1:
            raise BenchmarkError("NUMproc must be >= 1")
        if len(self.types) != self.num_arrays:
            raise BenchmarkError(
                f"TYPEarray lists {len(self.types)} types for NUMarray={self.num_arrays}"
            )

    # ------------------------------------------------------------------
    @property
    def types(self) -> tuple[Primitive, ...]:
        """The primitive datatypes named by TYPEarray."""
        return tuple(type_from_code(c) for c in self.type_codes.split(","))

    @property
    def element_bytes(self) -> int:
        """Bytes of one same-index element group across all arrays."""
        return sum(t.size for t in self.types)

    @property
    def block_size(self) -> int:
        """Program 2/3's ``block_size``: one access's bytes across arrays."""
        return self.element_bytes * self.size_access

    @property
    def bytes_per_process(self) -> int:
        """Data bytes each process contributes."""
        return self.element_bytes * self.len_array

    @property
    def total_bytes(self) -> int:
        """The resulting shared-file size."""
        return self.bytes_per_process * self.nprocs

    @property
    def accesses_per_process(self) -> int:
        """I/O calls each process issues per phase."""
        return (self.len_array // self.size_access) * self.num_arrays
