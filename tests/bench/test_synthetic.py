"""Synthetic benchmark harness tests: correctness of all three methods."""

import numpy as np
import pytest

from repro.bench import BenchConfig, Method, run_benchmark
from repro.bench.synthetic import check_file, make_arrays, reference_file_contents
from tests.conftest import make_test_cluster


class TestWorkloadConstruction:
    def test_arrays_have_configured_dtypes(self):
        cfg = BenchConfig(len_array=5)
        ints, dbls = make_arrays(cfg, rank=0)
        assert ints.dtype == np.int32
        assert dbls.dtype == np.float64
        assert len(ints) == len(dbls) == 5

    def test_arrays_differ_per_rank(self):
        cfg = BenchConfig(len_array=5)
        a0 = make_arrays(cfg, 0)[0]
        a1 = make_arrays(cfg, 1)[0]
        assert not np.array_equal(a0, a1)

    def test_reference_interleaves_round_robin(self):
        cfg = BenchConfig(len_array=2, nprocs=2)
        ref = reference_file_contents(cfg)
        assert len(ref) == cfg.total_bytes
        # block layout: [r0 b0][r1 b0][r0 b1][r1 b1]
        r0 = make_arrays(cfg, 0)
        block0 = r0[0][:1].tobytes() + r0[1][:1].tobytes()
        assert ref[:12] == block0

    def test_reference_with_size_access(self):
        cfg = BenchConfig(len_array=4, size_access=2, nprocs=2)
        ref = reference_file_contents(cfg)
        r0i, r0d = make_arrays(cfg, 0)
        assert ref[: 2 * 4] == r0i[:2].tobytes()
        assert ref[8 : 8 + 16] == r0d[:2].tobytes()

    def test_check_file_is_the_reference_compare(self):
        cfg = BenchConfig(len_array=4, size_access=2, nprocs=3)
        ref = reference_file_contents(cfg)
        assert check_file(cfg, ref) and check_file(cfg, bytearray(ref))
        for i in (0, len(ref) // 2, len(ref) - 1):
            flipped = bytearray(ref)
            flipped[i] ^= 1
            assert not check_file(cfg, flipped)
        assert not check_file(cfg, ref[:-1])
        assert not check_file(cfg, ref + b"\x00")


class TestAllMethodsVerify:
    @pytest.mark.parametrize("method", list(Method))
    def test_write_read_verified(self, method):
        cfg = BenchConfig(
            method=method, len_array=32, nprocs=4, file_name=f"b_{method.name}"
        )
        result = run_benchmark(cfg, cluster=make_test_cluster())
        assert not result.failed
        assert result.write_seconds > 0
        assert result.read_seconds > 0
        assert result.write_throughput > 0
        assert result.read_throughput > 0

    @pytest.mark.parametrize("method", list(Method))
    def test_size_access_above_one(self, method):
        cfg = BenchConfig(
            method=method,
            len_array=32,
            size_access=4,
            nprocs=2,
            file_name=f"sa_{method.name}",
        )
        result = run_benchmark(cfg, cluster=make_test_cluster())
        assert not result.failed

    def test_three_typed_arrays(self):
        cfg = BenchConfig(
            method=Method.TCIO,
            num_arrays=3,
            type_codes="c,i,d",
            len_array=16,
            nprocs=3,
            file_name="t3",
        )
        result = run_benchmark(cfg, cluster=make_test_cluster())
        assert not result.failed

    def test_single_process(self):
        cfg = BenchConfig(method=Method.TCIO, len_array=16, nprocs=1, file_name="p1")
        assert not run_benchmark(cfg, cluster=make_test_cluster()).failed

    def test_phases_can_run_separately(self):
        cfg = BenchConfig(method=Method.TCIO, len_array=16, nprocs=2, file_name="w")
        w = run_benchmark(cfg, cluster=make_test_cluster(), do_read=False)
        assert w.write_seconds and w.read_seconds is None
        r = run_benchmark(cfg, cluster=make_test_cluster(), do_write=False)
        assert r.read_seconds and r.write_seconds is None

    def test_tcio_stats_expose_mechanisms(self):
        cfg = BenchConfig(method=Method.TCIO, len_array=64, nprocs=4, file_name="s")
        result = run_benchmark(cfg, cluster=make_test_cluster())
        stats = result.tcio_stats
        assert stats["read_calls"] == cfg.accesses_per_process
        assert stats["fetches"] >= 1
        # rank 0 either loaded segments itself or was served from level 2
        assert stats["segment_loads"] + stats["local_gets"] + stats["get_blocks"] > 0


class TestOomBehaviour:
    """The Fig. 6 memory asymmetry at miniature scale.

    The workload holds 3072 B of arrays per node. OCIO needs ~3x that
    (arrays + combine buffer + two-phase temp buffer); TCIO needs ~2x
    (arrays + level-2 share) plus one segment. A budget between the two
    kills OCIO and spares TCIO — the paper's 48 GB point in miniature.
    """

    BUDGET = 7400

    def test_ocio_oom_reported_not_raised(self):
        cluster = make_test_cluster(memory_per_node=self.BUDGET, stripe_size=128)
        cfg = BenchConfig(method=Method.OCIO, len_array=64, nprocs=4, file_name="o")
        result = run_benchmark(cfg, cluster=cluster)
        assert result.failed
        assert result.fail_reason == "out of memory"
        assert result.write_throughput is None

    def test_tcio_survives_same_budget(self):
        cluster = make_test_cluster(memory_per_node=self.BUDGET, stripe_size=128)
        cfg = BenchConfig(method=Method.TCIO, len_array=64, nprocs=4, file_name="t")
        result = run_benchmark(cfg, cluster=cluster)
        assert not result.failed
