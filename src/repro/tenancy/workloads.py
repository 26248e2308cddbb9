"""Per-job workload programs and their byte oracles.

Each :class:`~repro.tenancy.spec.JobSpec` resolves to a :class:`Workload`:
a ``main(env)`` rank-program factory (run on the job's own world) plus the
byte-exact expected output files. The oracles are what the interference
matrix checks — contention may move virtual time, never data.

The programs are the repo's existing drivers, reused unchanged: the
synthetic benchmark writers of :mod:`repro.bench.synthetic` (Programs
2/3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bench.config import BenchConfig, Method
from repro.bench.synthetic import (
    _mpiio_write,
    _ocio_write,
    _tcio_write,
    reference_file_contents,
)
from repro.tenancy.spec import JobSpec

_BENCH_METHODS = {
    "tcio": Method.TCIO,
    "ocio": Method.OCIO,
    "mpiio": Method.MPIIO,
}


@dataclass
class Workload:
    """A job's runnable program and its expected durable output."""

    #: ``main(env)`` coroutine factory; one call per rank.
    main: Callable
    #: Expected file contents (tenant-relative name -> bytes) after a
    #: clean run. The contention-invariant oracle.
    expected: dict[str, bytes] = field(default_factory=dict)
    #: The job's primary data file (fsck/recovery target), if any.
    data_file: str = ""
    #: Whether the workload journals its writes (fsck is meaningful).
    journaled: bool = False


def bench_config(spec: JobSpec) -> BenchConfig:
    """The synthetic-benchmark config a bench-kind job implies."""
    p = spec.param_dict
    return BenchConfig(
        method=_BENCH_METHODS[spec.workload],
        nprocs=spec.nranks,
        num_arrays=int(p.get("num_arrays", 2)),
        type_codes=p.get("type_codes", "i,d"),
        len_array=int(p.get("len_array", 512)),
        size_access=int(p.get("size_access", 4)),
        file_name=f"{spec.name}.dat",
        journal=spec.journal,
    )


def build_workload(spec: JobSpec) -> Workload:
    """Resolve *spec* (its kind already validated by :class:`JobSpec`) into
    its runnable :class:`Workload`."""
    cfg = bench_config(spec)
    writer = {
        "tcio": _tcio_write, "ocio": _ocio_write, "mpiio": _mpiio_write,
    }[spec.workload]

    def main(env):
        return (yield from writer(env, cfg))

    return Workload(
        main=main,
        expected={cfg.file_name: reference_file_contents(cfg)},
        data_file=cfg.file_name,
        journaled=spec.workload == "tcio" and spec.journal == "epoch",
    )
