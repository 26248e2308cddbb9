"""Figure 5: synthetic-benchmark throughput vs. number of processes.

Table II configuration: NUMarray=2, TYPEarray=i,d, LENarray=4M (scaled),
SIZEaccess=1, NUMproc 64..1024; TCIO vs OCIO, write (left) and read
(right) throughput.

Paper shape to reproduce:
* write: OCIO >= TCIO at <= 256 processes, TCIO > OCIO at >= 512;
* read: TCIO > OCIO at every scale, with the gap widening.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.charts import log_scale_chart
from repro.experiments.common import FULL, ExperimentScale, widening_gap
from repro.perf.campaign import CampaignRunner
from repro.perf.points import points_for
from repro.util.tables import render_series
from repro.util.units import MIB


@dataclass
class Fig5Data:
    """The two sub-figures' series, indexed like ``proc_counts``."""

    proc_counts: list[int] = field(default_factory=list)
    write: dict[str, list[Optional[float]]] = field(default_factory=dict)
    read: dict[str, list[Optional[float]]] = field(default_factory=dict)

    def render(self) -> str:
        """Both panels as tables plus log-scale ASCII charts."""
        def mbps(series: dict) -> dict:
            return {
                k: [None if v is None else round(v / MIB, 1) for v in vs]
                for k, vs in series.items()
            }

        left = render_series(
            "procs", self.proc_counts, mbps(self.write),
            title="Fig. 5 (left): write throughput (MB/s)",
        )
        right = render_series(
            "procs", self.proc_counts, mbps(self.read),
            title="Fig. 5 (right): read throughput (MB/s)",
        )
        charts = (
            log_scale_chart(self.proc_counts, self.write_mbps(), title="write")
            + "\n\n"
            + log_scale_chart(self.proc_counts, self.read_mbps(), title="read")
        )
        return left + "\n\n" + right + "\n\n" + charts

    def write_mbps(self) -> dict:
        """Write series in MB/s (None preserved)."""
        return {
            k: [None if v is None else v / MIB for v in vs]
            for k, vs in self.write.items()
        }

    def read_mbps(self) -> dict:
        """Read series in MB/s (None preserved)."""
        return {
            k: [None if v is None else v / MIB for v in vs]
            for k, vs in self.read.items()
        }

    # -- acceptance checks (the paper's qualitative shape) -------------
    def write_crossover_holds(self, small_max: int = 256, large_min: int = 512) -> bool:
        """OCIO wins (or ties) at small scale; TCIO wins at large scale."""
        ok = True
        for p, t, o in zip(self.proc_counts, self.write["TCIO"], self.write["OCIO"]):
            if t is None or o is None:
                continue
            if p <= small_max and o < t * 0.95:
                ok = False
            if p >= large_min and t <= o:
                ok = False
        return ok

    def read_tcio_always_wins(self) -> bool:
        """Paper shape: TCIO reads beat OCIO at every process count."""
        return all(
            t > o
            for t, o in zip(self.read["TCIO"], self.read["OCIO"])
            if t is not None and o is not None
        )

    def read_gap_widens(self) -> bool:
        """Paper shape: the TCIO/OCIO read ratio grows with scale."""
        return widening_gap(self.read["TCIO"], self.read["OCIO"])


def run_fig5(
    scale: ExperimentScale = FULL,
    *,
    verbose: bool = False,
    runner=None,
) -> Fig5Data:
    """Regenerate both Fig. 5 panels; returns the series.

    *runner* is any ``points -> {point: result}`` callable: a
    :class:`repro.perf.campaign.CampaignRunner` (the default, serial and
    storeless) or a store's ``results_for`` (replay). The grid and its
    order always come from :func:`repro.perf.points.points_for`, so every
    runner computes the same points and the series follow grid order.
    """
    points = points_for("fig5", scale)
    results = (runner or CampaignRunner(1))(points)
    data = Fig5Data(proc_counts=list(scale.proc_counts))
    for point in points:
        method, result = point.get("method"), results[point]
        data.write.setdefault(method, []).append(result["write_throughput"])
        data.read.setdefault(method, []).append(result["read_throughput"])
        if verbose:  # pragma: no cover - console convenience
            wt = result["write_throughput"] or 0.0
            rt = result["read_throughput"] or 0.0
            print(
                f"fig5 {method} P={point.get('nprocs')}: "
                f"write {wt / MIB:.1f} MB/s, read {rt / MIB:.1f} MB/s"
            )
    return data
