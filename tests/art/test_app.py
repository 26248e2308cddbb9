"""ArtConfig / run_art driver tests."""

from repro.art import ArtConfig, ArtIoMethod, ArtWorkload, run_art
from repro.art.app import ArtResult
from tests.conftest import make_test_cluster


def small():
    return ArtWorkload(n_segments=8, cell_scale=128)


class TestArtConfig:
    def test_defaults(self):
        cfg = ArtConfig()
        assert cfg.method is ArtIoMethod.TCIO
        assert cfg.verify


class TestRunArt:
    def test_result_fields(self):
        cfg = ArtConfig(workload=small(), nprocs=3, file_name="a")
        res = run_art(cfg, cluster=make_test_cluster())
        assert isinstance(res, ArtResult)
        assert res.dump_seconds > 0 and res.restart_seconds > 0
        assert res.dump_throughput > 0 and res.restart_throughput > 0
        assert len(res.snapshot_contents) == res.snapshot_bytes
        assert res.dump_stats and res.restart_stats

    def test_per_array_cost_slows_both_phases(self):
        base = ArtConfig(workload=small(), nprocs=3, file_name="a", verify=False)
        slow = ArtConfig(
            workload=small(), nprocs=3, file_name="a", verify=False,
            per_array_cost=1e-4,
        )
        t_base = run_art(base, cluster=make_test_cluster())
        t_slow = run_art(slow, cluster=make_test_cluster())
        assert t_slow.dump_seconds > t_base.dump_seconds
        assert t_slow.restart_seconds > t_base.restart_seconds

    def test_tcio_stats_reported(self):
        cfg = ArtConfig(workload=small(), nprocs=2, file_name="a")
        res = run_art(cfg, cluster=make_test_cluster())
        assert res.dump_stats["write_calls"] > 0
        assert res.restart_stats["read_calls"] > 0
