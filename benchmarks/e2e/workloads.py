"""The seven workloads: inputs, byte oracles, and one typed outcome.

Every workload is driven from outside, through the same entry points a
user calls (``run_benchmark``, ``run_art``, ``run_ioserver``), with
``verify=True``. :func:`prepare` builds the inputs from the seed and the
expected output digest from the *analytic* oracle of the family, never from
a previous run of the program, so a run is correct only if the simulated
file holds exactly the bytes the workload definition says it must.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from repro.art import ArtConfig, ArtIoMethod, ArtWorkload, run_art
from repro.art.layout import FttRecordLayout, canonicalize
from repro.bench import BenchConfig, Method, run_benchmark
from repro.bench.synthetic import reference_file_contents
from repro.cluster.lonestar import make_lonestar
from repro.ioserver import expected_image, generate_trace, run_ioserver


@dataclass(frozen=True)
class Workload:
    """One named workload: its family, its sizing, and why it exists."""

    name: str
    why: str
    family: str  # "synthetic" | "art" | "ioserver"
    full: Mapping[str, object]
    #: A seconds-cheap sizing of the same shape, for the harness's own tests
    #: and for the warm-up inside the set-up measurement.
    tiny: Mapping[str, object]

    @property
    def seeded(self) -> bool:
        """Whether ``--seed`` changes the inputs (Table I configs have none)."""
        return self.family != "synthetic"


#: Problem sizes were timed at 1.7-3.6 s per iteration on the 2-core
#: reference box; all fit the scaled Lonestar's 512 KiB per rank.
WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "tcio-fine",
        "TCIO, 96 ranks, 393,216 one-element write_at/read_at calls: host time is "
        "per-call overhead in tcio and obs; pfs is idle",
        "synthetic",
        dict(method="TCIO", nprocs=96, len_array=1024, size_access=1),
        dict(method="TCIO", nprocs=8, len_array=32, size_access=1),
    ),
    Workload(
        "ocio-fine",
        "OCIO on the identical problem: the paper's comparison partner; bypasses "
        "tcio entirely and loads mpiio and simmpi, so a TCIO data-path change must not move it",
        "synthetic",
        dict(method="OCIO", nprocs=96, len_array=1024, size_access=1),
        dict(method="OCIO", nprocs=8, len_array=32, size_access=1),
    ),
    Workload(
        "tcio-bulk",
        "TCIO, 256 ranks, 48 MiB through 32,768 calls of 512 elements: the same layer "
        "used whole; level 2, RMA, pfs and the engine dominate, per-call savings predict no change",
        "synthetic",
        dict(method="TCIO", nprocs=256, len_array=16384, size_access=512),
        dict(method="TCIO", nprocs=8, len_array=256, size_access=32),
    ),
    Workload(
        "tcio-journal-node",
        "tcio-fine with journal=epoch and aggregation=node: the write-ahead journal and "
        "leader staging, the non-default flush pipeline a flush-path restructuring must keep",
        "synthetic",
        dict(method="TCIO", nprocs=96, len_array=1024, size_access=1,
             journal="epoch", aggregation="node"),
        dict(method="TCIO", nprocs=8, len_array=32, size_access=1,
             journal="epoch", aggregation="node"),
    ),
    Workload(
        "mpiio-indep",
        "independent MPI-IO, 16 ranks, 162k engine events: bypasses both collective "
        "stacks and loads the pfs lock manager, the OSTs and engine dispatch",
        "synthetic",
        dict(method="MPIIO", nprocs=16, len_array=1024, size_access=1),
        dict(method="MPIIO", nprocs=4, len_array=32, size_access=1),
    ),
    Workload(
        "art-restart",
        "ART dump and restart through TCIO, 64 ranks, 1024 seeded segments: variable-size "
        "records and a read-heavy restart, where a read-side change shows",
        "art",
        dict(nprocs=64, segments=1024, cell_scale=32),
        dict(nprocs=4, segments=8, cell_scale=128),
    ),
    Workload(
        "ioserver-trace",
        "a seeded 256-client, 10-epoch request trace through 4 delegate servers on 12 ranks: "
        "RPC fan-in, bounded queues, write-behind epochs; engine-bound through ioserver",
        "ioserver",
        dict(nclients=256, epochs=10, nranks=12, cores_per_node=3),
        dict(nclients=16, epochs=2, nranks=6, cores_per_node=3),
    ),
)

BY_NAME: dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: Output digests of the full sizing, pinned so that the oracle and the
#: program cannot drift together unnoticed. Synthetic workloads have one
#: digest for every seed (key seed ``None``); seeded workloads pin seed 0,
#: other seeds are held to the oracle alone.
PINNED_SHA256: dict[tuple[str, Optional[int]], str] = {
    # tcio-fine, ocio-fine and tcio-journal-node write the same file.
    ("tcio-fine", None): "81d6c301836d2f4dc238d246300f5a8af29d894dc5d7e23fd64fdd56860ca23a",
    ("ocio-fine", None): "81d6c301836d2f4dc238d246300f5a8af29d894dc5d7e23fd64fdd56860ca23a",
    ("tcio-bulk", None): "b44f083fa2fc3f88df27a7d14b411f4e5192fa965acf0dbde32f3a9e744e1b39",
    ("tcio-journal-node", None): "81d6c301836d2f4dc238d246300f5a8af29d894dc5d7e23fd64fdd56860ca23a",
    ("mpiio-indep", None): "0d1e2cd455b5d95581802554559822d75d63f2384ae8b315923eabd603caae04",
    ("art-restart", 0): "d8227a34653eddb94493c49629fbf150c79e60da6b0b34e891abd7b5ed65e6b4",
    ("ioserver-trace", 0): "57cbbf92b3da7a7db10d1ceeb9c283b855a2d6b39f7dfa3491f4d1c285393fd2",
}


@dataclass(frozen=True)
class Outcome:
    """What one iteration of any workload reports.

    Exactly one simulated-time field per phase: ``sim_write_s`` is the
    write or dump phase, ``sim_read_s`` the read or restart phase (both
    ``None`` for the I/O server, whose one job interleaves them), and
    ``sim_total_s`` the whole workload.
    """

    sha256: str
    sim_total_s: float
    sim_write_s: Optional[float]
    sim_read_s: Optional[float]
    #: Application calls the program itself reported as not served.
    failed_calls: int
    raw: object = field(compare=False, repr=False)


@dataclass(frozen=True)
class Prepared:
    """A workload with its inputs generated and its oracle evaluated."""

    workload: Workload
    seed: int
    run: Callable[[], Outcome]
    expected_sha256: str
    #: Application I/O calls one iteration issues (fixed by the inputs).
    app_calls: int
    #: Phase name -> callable running that phase alone, where the driver
    #: can run one phase from outside (synthetic workloads only).
    phases: Mapping[str, Callable[[], object]] = field(default_factory=dict)


def prepare(workload: Workload, seed: int, *, tiny: bool = False) -> Prepared:
    """Generate *workload*'s inputs from *seed* and evaluate its oracle."""
    params = dict(workload.tiny if tiny else workload.full)
    prepared = _PREPARE[workload.family](workload, params, seed)
    pinned = PINNED_SHA256.get(
        (workload.name, seed if workload.seeded else None)
    )
    if pinned is not None and not tiny and pinned != prepared.expected_sha256:
        raise RuntimeError(
            f"{workload.name}: oracle digest {prepared.expected_sha256} "
            f"differs from the pinned {pinned}"
        )
    return prepared


# ----------------------------------------------------------------------
# synthetic benchmark (Table I)
# ----------------------------------------------------------------------


def _prepare_synthetic(workload: Workload, params: dict, seed: int) -> Prepared:
    cfg = BenchConfig(
        method=Method.parse(params.pop("method")),
        num_arrays=2,
        type_codes="i,d",
        **params,
    )
    # OCIO's application issues one collective call per rank and phase;
    # TCIO and MPI-IO issue one call per array piece.
    per_phase = cfg.nprocs * (
        1 if cfg.method is Method.OCIO else cfg.accesses_per_process
    )
    app_calls = 2 * per_phase

    def run() -> Outcome:
        result = run_benchmark(cfg, verify=True)
        write = result.write_seconds or 0.0
        read = result.read_seconds or 0.0
        return Outcome(
            sha256=result.file_sha256,
            sim_total_s=write + read,
            sim_write_s=write,
            sim_read_s=read,
            failed_calls=app_calls if result.failed else 0,
            raw=result,
        )

    return Prepared(
        workload=workload,
        seed=seed,
        run=run,
        expected_sha256=hashlib.sha256(reference_file_contents(cfg)).hexdigest(),
        app_calls=app_calls,
        phases={
            "write": lambda: run_benchmark(cfg, do_read=False),
            "read": lambda: run_benchmark(cfg, do_write=False),
        },
    )


# ----------------------------------------------------------------------
# ART dump + restart (Table IV)
# ----------------------------------------------------------------------


def _prepare_art(workload: Workload, params: dict, seed: int) -> Prepared:
    nprocs = int(params["nprocs"])
    art = ArtWorkload(
        n_segments=int(params["segments"]),
        cell_scale=int(params["cell_scale"]),
        seed=seed,
    )
    cfg = ArtConfig(
        workload=art,
        method=ArtIoMethod.TCIO,
        nprocs=nprocs,
        verify=True,
        per_array_cost=0.5e-6,
    )
    cluster = make_lonestar(nranks=nprocs)

    # The snapshot, serially: the size index, then every record in order.
    layout = FttRecordLayout()
    trees = [canonicalize(art.build_tree(s)) for s in range(art.n_segments)]
    records = [layout.serialize(tree) for tree in trees]
    index = np.array([art.n_segments] + [len(r) for r in records], dtype=np.int64)
    expected = hashlib.sha256(index.tobytes() + b"".join(records)).hexdigest()
    # Dump: the count, one size per segment, every record array. Restart:
    # one index read per rank, then header + structure + one read per value.
    dump_calls = 1 + art.n_segments + sum(layout.array_count(t) for t in trees)
    restart_calls = nprocs + sum(2 + t.total_cells * t.nvars for t in trees)

    def run() -> Outcome:
        result = run_art(cfg, cluster=cluster)
        return Outcome(
            sha256=hashlib.sha256(result.snapshot_contents).hexdigest(),
            sim_total_s=result.dump_seconds + result.restart_seconds,
            sim_write_s=result.dump_seconds,
            sim_read_s=result.restart_seconds,
            failed_calls=0,
            raw=result,
        )

    return Prepared(
        workload=workload,
        seed=seed,
        run=run,
        expected_sha256=expected,
        app_calls=dump_calls + restart_calls,
    )


# ----------------------------------------------------------------------
# I/O server trace
# ----------------------------------------------------------------------


def _ioserver_digest(image: bytes, fetched: list[bytes]) -> str:
    """Digest of the final file image followed by every fetch answer."""
    digest = hashlib.sha256(image)
    for answer in fetched:
        digest.update(answer)
    return digest.hexdigest()


def _prepare_ioserver(workload: Workload, params: dict, seed: int) -> Prepared:
    trace = generate_trace(
        seed, int(params["nclients"]), epochs=int(params["epochs"])
    )
    nranks = int(params["nranks"])
    cores_per_node = int(params["cores_per_node"])
    image = expected_image(trace)
    fetches = [op for op in trace.ops if op.op == "fetch"]
    expected = _ioserver_digest(
        image,
        [
            image[op.offset : op.offset + op.nbytes].ljust(op.nbytes, b"\0")
            for op in fetches
        ],
    )
    app_calls = len(trace.ops)  # every trace op is one request to a server

    def run() -> Outcome:
        result = run_ioserver(trace, nranks=nranks, cores_per_node=cores_per_node)
        aborted = result.aborted is not None
        return Outcome(
            sha256=_ioserver_digest(
                result.image, [result.fetched.get(op.seq, b"") for op in fetches]
            ),
            # ``elapsed`` is the field ``perf.hostbench.measure_point`` omits
            # from its sum, which is why BENCH_7/8 record 0.0 for this family.
            sim_total_s=result.elapsed,
            sim_write_s=None,
            sim_read_s=None,
            failed_calls=app_calls if aborted else 0,
            raw=result,
        )

    return Prepared(
        workload=workload,
        seed=seed,
        run=run,
        expected_sha256=expected,
        app_calls=app_calls,
    )


_PREPARE = {
    "synthetic": _prepare_synthetic,
    "art": _prepare_art,
    "ioserver": _prepare_ioserver,
}
