"""Figures 6 & 7: throughput vs. file size at 64 processes, and the OOM.

Same configuration as Fig. 5 but NUMproc fixed at 64 and LENarray swept
1M..64M elements (dataset 768 MB..48 GB at paper scale). The headline: at
48 GB "the benchmark with OCIO fails to work" — each process would need the
0.75 GB application combine buffer plus the 0.75 GB two-phase temporary
buffer on top of its 0.75 GB of arrays, exceeding the 24 GB/12-core nodes —
while TCIO (one segment-sized level-1 buffer + the level-2 share) completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.experiments.common import FULL, ExperimentScale, paper_size_label
from repro.perf.campaign import CampaignRunner
from repro.perf.points import points_for
from repro.util.tables import render_series
from repro.util.units import MIB


@dataclass
class Fig67Data:
    """Write (Fig. 6) and read (Fig. 7) series over dataset sizes."""

    size_labels: list[str] = field(default_factory=list)
    write: dict[str, list[Optional[float]]] = field(default_factory=dict)
    read: dict[str, list[Optional[float]]] = field(default_factory=dict)
    failures: dict[str, list[bool]] = field(default_factory=dict)
    fail_reasons: dict[str, list[str]] = field(default_factory=dict)

    def render(self) -> str:
        """Figures 6 and 7 as tables (failed runs shown as --)."""
        def mbps(series: dict) -> dict:
            return {
                k: [None if v is None else round(v / MIB, 1) for v in vs]
                for k, vs in series.items()
            }

        return (
            render_series(
                "dataset", self.size_labels, mbps(self.write),
                title="Fig. 6: write throughput (MB/s); -- = failed run",
            )
            + "\n\n"
            + render_series(
                "dataset", self.size_labels, mbps(self.read),
                title="Fig. 7: read throughput (MB/s); -- = failed run",
            )
        )

    # -- acceptance checks ----------------------------------------------
    def ocio_oom_at_largest_only(self) -> bool:
        """Paper shape: OCIO fails at 48 GB and only there."""
        flags = self.failures["OCIO"]
        return bool(flags) and flags[-1] and not any(flags[:-1])

    def tcio_completes_everywhere(self) -> bool:
        """Paper shape: TCIO finishes every dataset size."""
        return not any(self.failures["TCIO"])

    def ocio_fails_from_memory(self) -> bool:
        """Paper shape: the 48 GB failure is an out-of-memory."""
        return self.fail_reasons["OCIO"][-1] == "out of memory"


def run_fig6_7(
    scale: ExperimentScale = FULL,
    *,
    verbose: bool = False,
    runner=None,
) -> Fig67Data:
    """Regenerate Figs. 6 and 7; returns both series plus failure flags.

    *runner* swaps in a pooled/store-backed executor; see :func:`run_fig5`.
    """
    points = points_for("fig67", scale)
    results = (runner or CampaignRunner(1))(points)
    data = Fig67Data(size_labels=[
        paper_size_label(n, scale.filesize_procs) for n in scale.filesize_lens
    ])
    for point in points:
        method, result = point.get("method"), results[point]
        data.write.setdefault(method, []).append(result["write_throughput"])
        data.read.setdefault(method, []).append(result["read_throughput"])
        data.failures.setdefault(method, []).append(result["failed"])
        data.fail_reasons.setdefault(method, []).append(result["fail_reason"])
        if verbose:  # pragma: no cover
            label = paper_size_label(point.get("len_array"), point.get("nprocs"))
            if result["failed"]:
                print(f"fig6/7 {method} {label}: FAILED ({result['fail_reason']})")
            else:
                print(
                    f"fig6/7 {method} {label}: "
                    f"write {(result['write_throughput'] or 0) / MIB:.1f} MB/s, "
                    f"read {(result['read_throughput'] or 0) / MIB:.1f} MB/s"
                )
    return data
