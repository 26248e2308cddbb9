"""Figures 9 & 10: ART dump/restart throughput, TCIO vs vanilla MPI-IO.

Strong scaling (the total root-cell count is fixed; Table IV's 1024
segments) over 64..1024 processes. Paper shape:

* TCIO is far faster — up to ~100x — than vanilla MPI-IO;
* at >= 512 processes, ART with vanilla MPI-IO exceeds 90 minutes, so the
  paper's MPI-IO curves are truncated there (we run it to completion in
  simulation and report the cap breach);
* TCIO's throughput first rises with process count, then dips at the
  largest scale (the centralized file system becomes the bottleneck).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.charts import log_scale_chart
from repro.experiments.common import FULL, ExperimentScale
from repro.perf.campaign import CampaignRunner
from repro.perf.points import points_for
from repro.util.tables import render_series
from repro.util.units import MIB

#: The paper's batch limit — runs past 90 minutes were cut. Mapped into
#: simulated seconds through the ART workload's combined scale factor
#: (the global 1/4096 size dilation times the tree/record compression of
#: ``ArtWorkload.cell_scale``); calibrated so the limit sits where the
#: paper reports it: above every completed <=256-process vanilla run.
WALL_CAP_SIM_SECONDS = 1.0


@dataclass
class Fig910Data:
    """Dump (Fig. 9) and restart (Fig. 10) series over process counts."""

    proc_counts: list[int] = field(default_factory=list)
    dump: dict[str, list[Optional[float]]] = field(default_factory=dict)
    restart: dict[str, list[Optional[float]]] = field(default_factory=dict)
    capped: dict[str, list[bool]] = field(default_factory=dict)
    snapshot_bytes: int = 0

    def render(self) -> str:
        """Figures 9 and 10 as tables plus log-scale ASCII charts."""
        def mbps(series: dict) -> dict:
            return {
                k: [None if v is None else round(v / MIB, 2) for v in vs]
                for k, vs in series.items()
            }

        def raw(series: dict) -> dict:
            return {
                k: [None if v is None else v / MIB for v in vs]
                for k, vs in series.items()
            }

        return (
            render_series(
                "procs", self.proc_counts, mbps(self.dump),
                title="Fig. 9: ART write throughput (MB/s); -- = exceeded 90-min cap",
            )
            + "\n\n"
            + render_series(
                "procs", self.proc_counts, mbps(self.restart),
                title="Fig. 10: ART read throughput (MB/s); -- = exceeded 90-min cap",
            )
            + "\n\n"
            + log_scale_chart(self.proc_counts, raw(self.dump), title="Fig. 9 (log y)")
            + "\n\n"
            + log_scale_chart(self.proc_counts, raw(self.restart), title="Fig. 10 (log y)")
        )

    # -- acceptance checks ----------------------------------------------
    def tcio_speedup(self, phase: str = "dump") -> list[Optional[float]]:
        """Per-point TCIO/MPI-IO throughput ratios (None when capped)."""
        series = self.dump if phase == "dump" else self.restart
        out: list[Optional[float]] = []
        for t, m in zip(series["TCIO"], series["MPI-IO"]):
            out.append(None if (t is None or m is None or m == 0) else t / m)
        return out

    def tcio_always_faster(self) -> bool:
        """Paper shape: TCIO beats vanilla MPI-IO at every point."""
        return all(
            s is None or s > 1.0
            for phase in ("dump", "restart")
            for s in self.tcio_speedup(phase)
        )

    def tcio_rises_then_dips(self, phase: str = "dump") -> bool:
        """Paper shape: TCIO throughput peaks then declines at scale."""
        series = (self.dump if phase == "dump" else self.restart)["TCIO"]
        vals = [v for v in series if v is not None]
        if len(vals) < 3:
            return False
        peak = max(range(len(vals)), key=lambda i: vals[i])
        return 0 < peak and vals[-1] < vals[peak]


def run_fig9_10(
    scale: ExperimentScale = FULL,
    *,
    verbose: bool = False,
    runner=None,
) -> Fig910Data:
    """Regenerate Figs. 9 and 10.

    *runner* swaps in a pooled/store-backed executor; see :func:`run_fig5`.
    """
    points = points_for("fig910", scale)
    results = (runner or CampaignRunner(1))(points)
    data = Fig910Data(proc_counts=list(scale.art_proc_counts))
    # The cap is calibrated against the full workload; reduced campaigns
    # run uncapped (their vanilla runs are proportionally shorter anyway).
    full_workload = (scale.art_segments, scale.art_cell_scale) == (
        FULL.art_segments,
        FULL.art_cell_scale,
    )
    cap = WALL_CAP_SIM_SECONDS if full_workload else float("inf")
    for point in points:
        label, result = point.get("method"), results[point]
        data.snapshot_bytes = result["snapshot_bytes"]
        over_cap = result["dump_seconds"] + result["restart_seconds"] > cap
        data.capped.setdefault(label, []).append(over_cap)
        data.dump.setdefault(label, []).append(
            None if over_cap else result["dump_throughput"]
        )
        data.restart.setdefault(label, []).append(
            None if over_cap else result["restart_throughput"]
        )
        if verbose:  # pragma: no cover
            print(
                f"fig9/10 {label} P={point.get('nprocs')}: "
                f"dump {result['dump_throughput'] / MIB:.2f} MB/s, "
                f"restart {result['restart_throughput'] / MIB:.2f} MB/s"
                + (" [over 90-min cap]" if over_cap else "")
            )
    return data
