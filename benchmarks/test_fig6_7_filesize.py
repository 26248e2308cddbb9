"""Figures 6 & 7 regeneration: throughput vs dataset size; the 48 GB OOM."""

from benchmarks.conftest import once
from repro.experiments.fig6_7_filesize import run_fig6_7


def test_fig6_7_filesize_sweep_and_oom(benchmark, scale, is_full):
    data = once(benchmark, run_fig6_7, scale)
    print("\n" + data.render())
    # TCIO completes every size at every campaign scale.
    assert data.tcio_completes_everywhere()
    if is_full:
        # "when the size of dataset is 48GB, the benchmark with OCIO fails
        # to work" — and only there, and because of memory.
        assert data.ocio_oom_at_largest_only()
        assert data.ocio_fails_from_memory()
        assert data.size_labels[-1] == "48GB"
