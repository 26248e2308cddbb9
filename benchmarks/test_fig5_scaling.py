"""Figure 5 regeneration: synthetic-benchmark throughput vs processes."""

from benchmarks.conftest import once
from repro.experiments.fig5_scaling import run_fig5


def test_fig5_write_and_read_scaling(benchmark, scale, is_full):
    data = once(benchmark, run_fig5, scale)
    print("\n" + data.render())
    # Every point must exist and be positive at any scale.
    for series in (data.write, data.read):
        for name in ("TCIO", "OCIO"):
            assert all(v and v > 0 for v in series[name])
    if is_full:
        # The paper's qualitative shape (Section V.B.2a).
        assert data.write_crossover_holds(small_max=256, large_min=512)
        assert data.read_tcio_always_wins()
        assert data.read_gap_widens()
