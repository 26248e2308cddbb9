"""Figures 9 & 10 regeneration: ART dump/restart, TCIO vs vanilla MPI-IO."""

from benchmarks.conftest import once
from repro.experiments.fig9_10_art import run_fig9_10


def test_fig9_10_art_strong_scaling(benchmark, scale, is_full):
    data = once(benchmark, run_fig9_10, scale)
    print("\n" + data.render())
    # TCIO beats vanilla MPI-IO at every scale, at any campaign size.
    assert data.tcio_always_faster()
    speedups = [s for s in data.tcio_speedup("dump") if s is not None]
    assert speedups and max(speedups) >= 10
    if is_full:
        # order(s) of magnitude, "up to 100X faster than the vanilla MPI-IO"
        assert max(speedups) >= 50
        # vanilla exceeds the 90-minute cap at the largest scales only
        capped = data.capped["MPI-IO"]
        assert any(capped) and not capped[0]
        assert not any(data.capped["TCIO"])
        # strong scaling: TCIO rises, then the centralized FS bites
        assert data.tcio_rises_then_dips("dump")
