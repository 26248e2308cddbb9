"""Property-based differential layer: the three I/O paths must agree.

Each case draws a random benchmark workload from a seed and runs it
through all three implementations — TCIO (Program 3), two-phase OCIO
(Program 2), and vanilla independent MPI-IO — on the same small cluster.
The resulting shared files must be byte-identical to each other and to
the analytic :func:`reference_file_contents`; TCIO must then read its own
file back exactly (round-trip).

Any divergence between the paths is a correctness bug in one of them:
the simulation's whole claim is that the transparent path moves the same
bytes the explicit paths do, just cheaper.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.config import BenchConfig, Method
from repro.bench.synthetic import (
    _mpiio_write,
    _ocio_read,
    _ocio_write,
    _tcio_read,
    _tcio_write,
    reference_file_contents,
)
from repro.faults import FaultPlan, FaultSpec
from repro.simmpi import run_mpi
from repro.util.rng import seeded_rng
from tests.conftest import make_test_cluster

SEEDS = range(20)


def random_workload(seed: int) -> BenchConfig:
    """A small random Table-I point, deterministic in *seed*."""
    rng = seeded_rng(seed, "differential")
    nprocs = int(rng.choice([2, 3, 4]))
    size_access = int(rng.choice([1, 2, 4]))
    nblocks = int(rng.integers(2, 9))
    num_arrays = int(rng.integers(1, 4))
    codes = ",".join(rng.choice(["c", "s", "i", "f", "d"], size=num_arrays))
    return BenchConfig(
        num_arrays=num_arrays,
        type_codes=codes,
        len_array=nblocks * size_access,
        size_access=size_access,
        nprocs=nprocs,
    )


def write_phase(cfg: BenchConfig, cluster, faults=None) -> bytes:
    """One write job with *cfg*'s method; returns the shared file's bytes."""
    writer = {
        Method.OCIO: _ocio_write,
        Method.TCIO: _tcio_write,
        Method.MPIIO: _mpiio_write,
    }[cfg.method]
    res = run_mpi(
        cfg.nprocs, lambda env: writer(env, cfg), cluster=cluster, faults=faults
    )
    return res.pfs.lookup(cfg.file_name).contents()


def multi_node_cluster():
    """Two ranks per node, so the differential workloads span nodes."""
    return make_test_cluster(nodes=4, cores_per_node=2)


@pytest.mark.parametrize("seed", SEEDS)
def test_three_paths_agree_and_tcio_round_trips(seed, small_cluster):
    cfg = random_workload(seed)
    expected = reference_file_contents(cfg)

    produced = {
        method.name: write_phase(replace(cfg, method=method), small_cluster)
        for method in (Method.TCIO, Method.OCIO, Method.MPIIO)
    }
    for name, got in produced.items():
        assert got == produced["TCIO"], (
            f"seed {seed}: {name} file differs from TCIO "
            f"({len(got)} vs {len(produced['TCIO'])} bytes)"
        )
    assert produced["TCIO"] == expected, f"seed {seed}: all paths agree but are wrong"

    # TCIO round-trip: read the written file back through the read path;
    # _tcio_read raises BenchmarkError on any mismatch.
    read_cfg = replace(cfg, method=Method.TCIO)

    def seed_fs(pfs) -> None:
        pfs.create(read_cfg.file_name).write_bytes(0, produced["TCIO"])

    run_mpi(
        read_cfg.nprocs,
        lambda env: _tcio_read(env, read_cfg, True),
        cluster=small_cluster,
        pfs_init=seed_fs,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_node_aggregation_matches_flat(seed):
    """Node-aggregated TCIO and OCIO move exactly the flat paths' bytes.

    Same seeded workloads as the flat differential, but on a cluster with
    two ranks per node (so multi-rank runs actually cross nodes) and with
    ``aggregation="node"`` — the leader-staged exchange must be invisible
    in the file contents, write and read.
    """
    cluster = multi_node_cluster()
    cfg = replace(random_workload(seed), aggregation="node")
    expected = reference_file_contents(cfg)

    for method in (Method.TCIO, Method.OCIO):
        got = write_phase(replace(cfg, method=method), cluster)
        assert got == expected, f"seed {seed}: node-mode {method.name} differs"

    def seed_fs(pfs) -> None:
        pfs.create(cfg.file_name).write_bytes(0, expected)

    # read paths: both raise on any byte mismatch
    run_mpi(
        cfg.nprocs,
        lambda env: _tcio_read(env, replace(cfg, method=Method.TCIO), True),
        cluster=cluster,
        pfs_init=seed_fs,
    )
    run_mpi(
        cfg.nprocs,
        lambda env: _ocio_read(env, replace(cfg, method=Method.OCIO), True),
        cluster=cluster,
        pfs_init=seed_fs,
    )


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_node_aggregation_survives_unreachable_leader(seed):
    """An unreachable node leader degrades staging to the flat path.

    Rank 0 leads node 0; making it an always-failing RMA target forces
    TCIO deposits toward it to exhaust their retry budget and OCIO to
    route node 0's traffic around its leader — both must still produce
    the reference bytes and record the degradation.
    """
    cluster = multi_node_cluster()
    cfg = replace(random_workload(seed), nprocs=4, aggregation="node")
    expected = reference_file_contents(cfg)
    spec = FaultSpec(unreachable_ranks=(0,))

    for method in (Method.TCIO, Method.OCIO):
        plan = FaultPlan(spec, seed, scope=f"node-{method.name}")
        got = write_phase(replace(cfg, method=method), cluster, faults=plan)
        assert got == expected, (
            f"seed {seed}: {method.name} with a down leader diverged"
        )
        if method is Method.TCIO:
            # deposits toward the dead leader gave up and fell back
            assert any(what.startswith("topo.") for what, _ in plan.fallbacks)
