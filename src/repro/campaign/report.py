"""Deterministic report generation from a campaign store.

Three renderers, all pure functions of the store's contents (no
timestamps, hostnames or wall-clock anywhere in the output, so two runs
over the same records produce the same bytes):

* :func:`scaling_report` — a comparison table plus an ASCII scaling
  curve for one metric across one swept parameter, grouped into one
  series per value of a second parameter (``method``, ``aggregation``,
  ``qos``, ...);
* :func:`svg_line_chart` — the same curves as a standalone SVG document
  (hand-assembled markup; no plotting dependency);
* :func:`experiments_section` — byte-identical regeneration of one
  EXPERIMENTS.md section by replaying the exact section builder
  (:mod:`repro.experiments.report`) against stored results via
  :meth:`repro.campaign.store.CampaignStore.results_for`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.charts import ascii_chart
from repro.campaign.store import CampaignStore, StoreError
from repro.util.tables import render_series

#: Fixed series palette (SVG output must not depend on dict ordering
#: accidents, so colors are assigned by series index, deterministically).
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


# ----------------------------------------------------------------------
# data extraction
# ----------------------------------------------------------------------


def store_series(
    store: CampaignStore,
    experiment: str,
    *,
    x: str,
    y: str,
    group_by: Optional[str] = None,
    where: Optional[dict] = None,
) -> tuple[list, dict[str, list]]:
    """(xs, {series name: ys}) for one metric across one swept parameter.

    With ``group_by``, one series per distinct value of that parameter
    (sorted); without, a single series named after the metric. Missing
    (x, series) combinations become ``None`` — rendered like the paper's
    truncated curves.
    """
    records = store.query(experiment, source="campaign", where=where)
    if not records:
        raise StoreError(
            f"store has no campaign records for experiment {experiment!r}"
            + (f" matching {where}" if where else "")
        )
    from repro.campaign.store import _value_key

    xs = sorted({r.get(x) for r in records if r.get(x) is not None},
                key=_value_key)
    if group_by is None:
        groups = {y: records}
    else:
        names = sorted({str(r.get(group_by)) for r in records})
        groups = {
            name: [r for r in records if str(r.get(group_by)) == name]
            for name in names
        }
    series: dict[str, list] = {}
    for name, group in groups.items():
        by_x = {}
        for record in group:
            value = record.metrics.get(y)
            if record.get(x) is not None and isinstance(value, (int, float)):
                by_x[record.get(x)] = float(value)
        series[name] = [by_x.get(xv) for xv in xs]
    return xs, series


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------


def scaling_report(
    store: CampaignStore,
    experiment: str,
    *,
    x: str,
    y: str,
    group_by: Optional[str] = None,
    where: Optional[dict] = None,
    title: Optional[str] = None,
    log_y: bool = False,
    height: int = 12,
) -> str:
    """A comparison table plus ASCII chart for one stored sweep axis."""
    xs, series = store_series(
        store, experiment, x=x, y=y, group_by=group_by, where=where
    )
    heading = title or f"{experiment}: {y} vs {x}"
    table = render_series(
        x, xs, {name: [_cell(v) for v in ys] for name, ys in series.items()}
    )
    chart = ascii_chart(
        xs, series, height=height, log_y=log_y, title="", y_label=y
    )
    return f"{heading}\n\n{table}\n\n{chart}"


def _cell(value: Optional[float]) -> Optional[str]:
    if value is None:
        return None
    return f"{value:.6g}"


def svg_line_chart(
    xs: Sequence[object],
    series: dict[str, Sequence[Optional[float]]],
    *,
    title: str = "",
    y_label: str = "",
    width: int = 640,
    height: int = 360,
    log_y: bool = False,
) -> str:
    """One deterministic SVG line chart (same data contract as ascii_chart).

    The output is a complete standalone document assembled from fixed
    markup — identical input always yields identical bytes.
    """
    import math

    values = [v for vs in series.values() for v in vs
              if v is not None and v > 0]
    if not values or not xs:
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" width="160" height="40">'
            '<text x="8" y="24" font-size="12">(no data)</text></svg>'
        )
    left, right, top, bottom = 64, 16, 28, 44
    plot_w, plot_h = width - left - right, height - top - bottom
    vmax, vmin = max(values), min(values)
    if log_y:
        lo, hi = math.log10(vmin), math.log10(vmax)
    else:
        lo, hi = 0.0, vmax
    if hi <= lo:
        hi = lo + 1.0

    def px(xi: int) -> float:
        if len(xs) == 1:
            return left + plot_w / 2
        return left + plot_w * xi / (len(xs) - 1)

    def py(v: float) -> float:
        scaled = math.log10(v) if log_y else v
        frac = (scaled - lo) / (hi - lo)
        return top + plot_h * (1.0 - frac)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="18" font-size="13" '
            f'text-anchor="middle" font-family="monospace">{_esc(title)}</text>'
        )
    # axes
    out.append(
        f'<path d="M {left} {top} V {top + plot_h} H {left + plot_w}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    top_label = _fmt_tick(10**hi if log_y else hi)
    bottom_label = _fmt_tick(10**lo if log_y else lo)
    out.append(
        f'<text x="{left - 6}" y="{top + 4}" font-size="11" '
        f'text-anchor="end" font-family="monospace">{top_label}</text>'
    )
    out.append(
        f'<text x="{left - 6}" y="{top + plot_h + 4}" font-size="11" '
        f'text-anchor="end" font-family="monospace">{bottom_label}</text>'
    )
    if y_label:
        out.append(
            f'<text x="{left - 6}" y="{top + plot_h / 2:.1f}" font-size="11" '
            f'text-anchor="end" font-family="monospace">{_esc(y_label)}</text>'
        )
    for xi, xv in enumerate(xs):
        out.append(
            f'<text x="{px(xi):.1f}" y="{top + plot_h + 16}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{_esc(str(xv))}</text>'
        )
    # curves: one polyline per contiguous run of defined points, plus marks
    for si, (name, vs) in enumerate(series.items()):
        color = _COLORS[si % len(_COLORS)]
        run: list[str] = []
        runs: list[list[str]] = []
        for xi, v in enumerate(vs):
            if v is None or v <= 0:
                if run:
                    runs.append(run)
                    run = []
                continue
            run.append(f"{px(xi):.1f},{py(v):.1f}")
        if run:
            runs.append(run)
        for pts in runs:
            if len(pts) > 1:
                out.append(
                    f'<polyline points="{" ".join(pts)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        for xi, v in enumerate(vs):
            if v is None or v <= 0:
                continue
            out.append(
                f'<circle cx="{px(xi):.1f}" cy="{py(v):.1f}" r="2.5" '
                f'fill="{color}"/>'
            )
        out.append(
            f'<text x="{left + 8 + 120 * si}" y="{height - 10}" '
            f'font-size="11" font-family="monospace" fill="{color}">'
            f'&#9679; {_esc(name)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _fmt_tick(v: float) -> str:
    if v >= 1000:
        return f"{v:.0f}"
    if v >= 10:
        return f"{v:.1f}"
    return f"{v:.2f}"


def store_svg_chart(
    store: CampaignStore,
    experiment: str,
    *,
    x: str,
    y: str,
    group_by: Optional[str] = None,
    where: Optional[dict] = None,
    title: Optional[str] = None,
    log_y: bool = False,
) -> str:
    """:func:`svg_line_chart` over :func:`store_series` data."""
    xs, series = store_series(
        store, experiment, x=x, y=y, group_by=group_by, where=where
    )
    return svg_line_chart(
        xs, series, title=title or f"{experiment}: {y} vs {x}",
        y_label=y, log_y=log_y,
    )


# ----------------------------------------------------------------------
# EXPERIMENTS.md section replay
# ----------------------------------------------------------------------


def experiments_section(store: CampaignStore, section: str, scale=None) -> str:
    """One EXPERIMENTS.md section, regenerated from stored results.

    Runs the *same* section builder the full report generator uses
    (:func:`repro.experiments.report.build_section`) with
    :meth:`CampaignStore.results_for` as its runner, so the block is
    byte-identical to what a live campaign at the same scale writes.
    Sections without simulation points (``header``, ``table3``) ignore
    the store. Raises :class:`StoreError` naming any point the store is
    missing.
    """
    from repro.experiments.common import FULL
    from repro.experiments.report import build_section

    scale = scale if scale is not None else FULL
    return build_section(section, scale, runner=store.results_for)
