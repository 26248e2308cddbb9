"""The synthetic benchmark: Programs 2 & 3 and the vanilla-MPI-IO variant.

Workload (Fig. 2): process ``r`` owns ``NUMarray`` arrays; access ``i``
writes ``SIZEaccess`` elements of each array, and the combined block lands
at file offset ``r*block + i*block*P`` — small noncontiguous blocks from
all processes, interleaved round-robin.

Every run verifies the shared file byte-for-byte (:func:`check_file`, rank
by rank against the layout :func:`reference_file_contents` spells out)
before any throughput is reported.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.bench.config import BenchConfig, Method
from repro.cluster.spec import ClusterSpec
from repro.faults import FaultPlan, FaultSpec
from repro.mpiio import IoHints, MpiFile, MODE_CREATE, MODE_RDONLY, MODE_RDWR
from repro.simmpi import collectives
from repro.simmpi.datatypes import BYTE, Contiguous
from repro.simmpi.mpi import RankEnv, run_mpi
from repro.sim.trace import TraceRecorder
from repro.tcio import TCIO_RDONLY, TCIO_WRONLY, TcioConfig, TcioFile
from repro.util.errors import BenchmarkError, OutOfMemoryError


# ----------------------------------------------------------------------
# workload construction (vectorized)
# ----------------------------------------------------------------------


def make_arrays(cfg: BenchConfig, rank: int) -> list[np.ndarray]:
    """The rank's in-memory arrays, deterministically valued.

    Array ``j`` holds ``(rank + 1) * (j + 1) + index`` cast to its dtype —
    unique enough to catch any misplaced block in verification.
    """
    out = []
    for j, t in enumerate(cfg.types):
        base = np.arange(cfg.len_array, dtype=np.int64)
        values = (rank + 1) * (j + 1) + base
        out.append(values.astype(t.np_dtype))
    return out


def _rank_blocks(cfg: BenchConfig, rank: int) -> np.ndarray:
    """(nblocks, block_size) uint8 matrix: the rank's file blocks in order."""
    nblocks = cfg.len_array // cfg.size_access
    blocks = np.empty((nblocks, cfg.block_size), dtype=np.uint8)
    col = 0
    for arr in make_arrays(cfg, rank):
        width = cfg.size_access * arr.dtype.itemsize
        view = arr.view(np.uint8).reshape(nblocks, width)
        blocks[:, col : col + width] = view
        col += width
    return blocks


def reference_file_contents(cfg: BenchConfig) -> bytes:
    """The byte-exact expected shared file."""
    nblocks = cfg.len_array // cfg.size_access
    stacked = np.empty((nblocks, cfg.nprocs, cfg.block_size), dtype=np.uint8)
    for r in range(cfg.nprocs):
        stacked[:, r, :] = _rank_blocks(cfg, r)
    return stacked.tobytes()


def check_file(cfg: BenchConfig, data: bytes | bytearray) -> bool:
    """Whether *data* is byte-for-byte :func:`reference_file_contents`.

    Compares each rank's blocks against a strided view of *data*, one rank
    at a time, so no second copy of the file is ever built.
    """
    nblocks = cfg.len_array // cfg.size_access
    if len(data) != nblocks * cfg.nprocs * cfg.block_size:
        return False
    view = np.frombuffer(data, dtype=np.uint8).reshape(nblocks, cfg.nprocs, cfg.block_size)
    return all(np.array_equal(view[:, r], _rank_blocks(cfg, r)) for r in range(cfg.nprocs))


# ----------------------------------------------------------------------
# per-method writers
# ----------------------------------------------------------------------


def _combine_buffer(cfg: BenchConfig, rank: int, env: RankEnv) -> bytes:
    """Program 2 steps 1-2: the application-level combine buffer.

    Charged as one simulated allocation plus a memcpy of every byte —
    exactly the work OCIO forces on the application.
    """
    blocks = _rank_blocks(cfg, rank)
    env.compute(cfg.bytes_per_process / env.world.fabric.spec.memcpy_bandwidth)
    return blocks.tobytes()


def _bench_hints(cfg: BenchConfig) -> IoHints:
    """The collective-I/O hints a benchmark config implies."""
    return IoHints(cb_aggregation=cfg.aggregation, cb_nodes=cfg.cb_nodes)


def _ocio_write(env: RankEnv, cfg: BenchConfig):
    """Program 2: combine + file view + one collective write (coroutine)."""
    rank, P = env.rank, env.size
    memory = env.world.memory
    combine_alloc = memory.allocate(rank, cfg.bytes_per_process, "app.combine")
    buf = _combine_buffer(cfg, rank, env)
    etype = Contiguous(cfg.block_size, BYTE)
    filetype = etype.vector(cfg.len_array // cfg.size_access, 1, P)
    fh = yield from MpiFile.open(
        env, cfg.file_name, MODE_RDWR | MODE_CREATE, _bench_hints(cfg)
    )
    yield from fh.set_view(rank * cfg.block_size, etype, filetype)
    yield from fh.write_all(buf)
    yield from fh.close()
    memory.free(combine_alloc)


def _ocio_read(env: RankEnv, cfg: BenchConfig, verify: bool):
    rank, P = env.rank, env.size
    memory = env.world.memory
    combine_alloc = memory.allocate(rank, cfg.bytes_per_process, "app.combine")
    etype = Contiguous(cfg.block_size, BYTE)
    filetype = etype.vector(cfg.len_array // cfg.size_access, 1, P)
    fh = yield from MpiFile.open(env, cfg.file_name, MODE_RDONLY, _bench_hints(cfg))
    yield from fh.set_view(rank * cfg.block_size, etype, filetype)
    data = yield from fh.read_all(cfg.len_array // cfg.size_access, etype)
    yield from fh.close()
    # Scatter the combine buffer back into the arrays (charged memcpy).
    env.compute(cfg.bytes_per_process / env.world.fabric.spec.memcpy_bandwidth)
    if verify and data != _rank_blocks(cfg, rank).tobytes():
        raise BenchmarkError(f"rank {rank}: OCIO read returned wrong data")
    memory.free(combine_alloc)


def _tcio_config(cfg: BenchConfig, env: RankEnv) -> TcioConfig:
    stripe = cfg.segment_bytes or env.pfs.spec.stripe_size
    sized = TcioConfig.sized_for(cfg.total_bytes, env.size, stripe)
    if cfg.journal != "off":
        sized = replace(sized, journal=cfg.journal)
    if cfg.aggregation == "flat":
        return sized
    # Node mode: size the staging buffer to hold a whole node's share of
    # the file, so no deposit has to fall back on capacity in a single
    # write-then-close run (the benchmark has no mid-run flush).
    node_of = env.world.node_of[: env.size]
    ranks_per_node = max(node_of.count(n) for n in set(node_of))
    return replace(
        sized,
        aggregation="node",
        staging_segments=max(32, sized.segments_per_process * ranks_per_node),
    )


def _tcio_write(env: RankEnv, cfg: BenchConfig):
    """Program 3: per-block POSIX-style writes; TCIO does the rest
    (coroutine)."""
    rank, P = env.rank, env.size
    block, access = cfg.block_size, cfg.size_access
    pieces = [(arr, arr.dtype.itemsize * access) for arr in make_arrays(cfg, rank)]
    fh = yield from TcioFile.open(env, cfg.file_name, TCIO_WRONLY, _tcio_config(cfg, env))
    for i in range(0, cfg.len_array, access):
        pos = rank * block + (i // access) * block * P
        for arr, width in pieces:
            yield from fh.write_at(pos, arr[i : i + access])
            pos += width
    yield from fh.close()
    return fh.stats.as_dict()


def _tcio_read(env: RankEnv, cfg: BenchConfig, verify: bool):
    rank, P = env.rank, env.size
    block = cfg.block_size
    sizes = [t.size for t in cfg.types]
    dests = [np.empty(cfg.len_array, dtype=t.np_dtype) for t in cfg.types]
    views = [memoryview(a).cast("B") for a in dests]
    fh = yield from TcioFile.open(env, cfg.file_name, TCIO_RDONLY, _tcio_config(cfg, env))
    for i in range(0, cfg.len_array, cfg.size_access):
        pos = rank * block + (i // cfg.size_access) * block * P
        for j in range(cfg.num_arrays):
            width = sizes[j] * cfg.size_access
            lo = i * sizes[j]
            yield from fh.read_at(pos, views[j][lo : lo + width])
            pos += width
    yield from fh.fetch()
    yield from fh.close()
    if verify:
        for got, exp in zip(dests, make_arrays(cfg, rank)):
            if not np.array_equal(got, exp):
                raise BenchmarkError(f"rank {rank}: TCIO read returned wrong data")
    return fh.stats.as_dict()


def _mpiio_write(env: RankEnv, cfg: BenchConfig):
    """Vanilla MPI-IO: one independent write per block piece (coroutine)."""
    arrays = make_arrays(cfg, env.rank)
    block = cfg.block_size
    fh = yield from MpiFile.open(env, cfg.file_name, MODE_RDWR | MODE_CREATE)
    for i in range(0, cfg.len_array, cfg.size_access):
        pos = env.rank * block + (i // cfg.size_access) * block * env.size
        for arr in arrays:
            yield from fh.write_at(pos, arr[i : i + cfg.size_access])
            pos += arr.dtype.itemsize * cfg.size_access
    yield from fh.close()


def _mpiio_read(env: RankEnv, cfg: BenchConfig, verify: bool):
    rank, P = env.rank, env.size
    block = cfg.block_size
    sizes = [t.size for t in cfg.types]
    dests = [np.empty(cfg.len_array, dtype=t.np_dtype) for t in cfg.types]
    views = [memoryview(a).cast("B") for a in dests]
    fh = yield from MpiFile.open(env, cfg.file_name, MODE_RDONLY)
    for i in range(0, cfg.len_array, cfg.size_access):
        pos = rank * block + (i // cfg.size_access) * block * P
        for j in range(cfg.num_arrays):
            width = sizes[j] * cfg.size_access
            lo = i * sizes[j]
            got = yield from fh.read_at(pos, width)
            views[j][lo : lo + width] = np.frombuffer(got, dtype=np.uint8)
            pos += width
    yield from fh.close()
    if verify:
        for got, exp in zip(dests, make_arrays(cfg, rank)):
            if not np.array_equal(got, exp):
                raise BenchmarkError(f"rank {rank}: MPI-IO read returned wrong data")


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------


@dataclass
class BenchResult:
    """One benchmark configuration's outcome."""

    config: BenchConfig
    elapsed: float = 0.0
    write_seconds: Optional[float] = None
    read_seconds: Optional[float] = None
    failed: bool = False
    fail_reason: str = ""
    #: SHA-256 of the shared file the write phase produced (byte-identity
    #: evidence for the parallel campaign runner's differential tests).
    file_sha256: str = ""
    tcio_stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    #: Phase name -> bound FaultPlan (only when faults were requested);
    #: gives callers the injection timeline and fallback log.
    fault_plans: dict = field(default_factory=dict)

    @property
    def write_throughput(self) -> Optional[float]:
        """Bytes/second of simulated time (None when failed/skipped)."""
        if self.failed or not self.write_seconds:
            return None
        return self.config.total_bytes / self.write_seconds

    @property
    def read_throughput(self) -> Optional[float]:
        """Bytes/second of simulated time (None when failed/skipped)."""
        if self.failed or not self.read_seconds:
            return None
        return self.config.total_bytes / self.read_seconds


def run_benchmark(
    cfg: BenchConfig,
    *,
    cluster: Optional[ClusterSpec] = None,
    do_write: bool = True,
    do_read: bool = True,
    verify: bool = True,
    trace: Optional[TraceRecorder] = None,
    faults: Optional[FaultSpec] = None,
    fault_seed: int = 0,
) -> BenchResult:
    """Run one (method, parameters) point; returns timings + verification.

    The write and read phases run as *separate simulated jobs*, matching
    the paper's methodology (separate measurements: a fresh job starts
    with cold network connections and matching queues). The read job's
    file system is seeded with the bytes the write job produced (or the
    reference contents if only reading). A simulated OOM (the Fig. 6/7
    48 GB failure) is reported as ``failed=True,
    fail_reason='out of memory'`` instead of raising.

    ``faults`` arms fault injection: each phase gets a fresh
    :class:`FaultPlan` derived from ``fault_seed`` (scoped ``"write"`` /
    ``"read"`` so the phases draw independent but reproducible fault
    streams); the bound plans land in ``result.fault_plans``. Byte
    verification runs exactly as in fault-free mode — a faulted run must
    still produce the reference file.
    """
    result = BenchResult(config=cfg)

    def make_plan(phase: str) -> Optional[FaultPlan]:
        if faults is None:
            return None
        plan = FaultPlan(faults, fault_seed, scope=phase)
        result.fault_plans[phase] = plan
        return plan

    def phase_main(phase: str):
        def main(env: RankEnv):
            memory = env.world.memory
            arrays_alloc = memory.allocate(
                env.rank, cfg.bytes_per_process, "app.arrays"
            )
            stats: dict = {}
            yield from collectives.barrier(env.comm)
            t0 = env.now
            if phase == "write":
                if cfg.method is Method.OCIO:
                    yield from _ocio_write(env, cfg)
                elif cfg.method is Method.TCIO:
                    stats = yield from _tcio_write(env, cfg)
                else:
                    yield from _mpiio_write(env, cfg)
            else:
                if cfg.method is Method.OCIO:
                    yield from _ocio_read(env, cfg, verify)
                elif cfg.method is Method.TCIO:
                    stats = yield from _tcio_read(env, cfg, verify)
                else:
                    yield from _mpiio_read(env, cfg, verify)
            yield from collectives.barrier(env.comm)
            memory.free(arrays_alloc)
            return env.now - t0, stats

        return main

    # Each phase is its own function, so its simulated job (world, file
    # system, buffers) is gone before the next phase starts; only the
    # shared file's bytes pass from one to the next.
    def write_phase() -> bytearray:
        run = run_mpi(
            cfg.nprocs,
            phase_main("write"),
            cluster=cluster,
            trace=trace,
            faults=make_plan("write"),
        )
        result.elapsed += run.elapsed
        result.write_seconds = max(t for t, _ in run.returns)
        result.tcio_stats = run.returns[0][1]
        result.counters.update(
            {f"write.{k}": v for k, v in run.trace.summary().items()}
        )
        return run.pfs.lookup(cfg.file_name).data

    def read_phase(contents: bytearray) -> None:
        def seed(pfs) -> None:
            pfs.create(cfg.file_name).data = contents

        run = run_mpi(
            cfg.nprocs,
            phase_main("read"),
            cluster=cluster,
            trace=trace,
            pfs_init=seed,
            faults=make_plan("read"),
        )
        result.elapsed += run.elapsed
        result.read_seconds = max(t for t, _ in run.returns)
        if run.returns[0][1]:
            result.tcio_stats = run.returns[0][1]
        result.counters.update(
            {f"read.{k}": v for k, v in run.trace.summary().items()}
        )

    try:
        written: Optional[bytearray] = None
        if do_write:
            written = write_phase()
            result.file_sha256 = hashlib.sha256(written).hexdigest()
            if verify and not check_file(cfg, written):
                raise BenchmarkError(
                    f"{cfg.method.name}: shared file mismatch "
                    f"({len(written)} bytes vs {cfg.total_bytes} expected)"
                )
        if do_read:
            # The written bytes move into the read job's file, uncopied.
            read_phase(written if written is not None else bytearray(reference_file_contents(cfg)))
    except OutOfMemoryError as exc:
        result.failed = True
        result.fail_reason = "out of memory"
        result.counters["oom_detail"] = str(exc)
    return result
