"""``compare A.json B.json``: judge a change against its parent, row by row.

One row per workload and end-to-end metric: both medians, the ratio with its
base, the bound, and a verdict. A result set is what ``run --out`` appends
to; both sets must hold the same (workload, seed) runs, because simulated
seconds are compared seed for seed and must be *equal*. The verdicts follow
the choosing-metrics guide:

* ``worse``  — B's median is worse than A's by more than the bound (for an
  exact metric: differs at all in the worse direction);
* ``unresolved`` — within the bound, but the samples spread wider than the
  bound, so "unchanged" cannot be claimed (unless every B sample beats
  every A sample, which is ``better``);
* ``better`` — B's median is better by more than the spread;
* ``same`` — otherwise.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER_BY_NAME, Metric

#: Relative tolerance for metrics that must repeat exactly (float printing).
EXACT = 1e-9


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    a: float
    b: float
    bound: float
    spread: float
    verdict: str

    def render(self) -> str:
        ratio = self.b / self.a if self.a else float("inf")
        return (
            f"{self.workload:<18} {self.metric:<22} A {self.a:>13.6g}  "
            f"B {self.b:>13.6g} {self.unit:<8} B/A {ratio:>7.4f} (base A)  "
            f"bound {self.bound:<7.3g} spread {self.spread:<7.3g} {self.verdict}"
        )


def _spread(samples: list[float]) -> float:
    """Distance between the quartiles (the range, below four samples) as a
    share of the median."""
    median = statistics.median(samples)
    if len(samples) < 2 or median == 0:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / abs(median)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(median)


def judge(metric: Metric, a: list[float], b: list[float], bound: float) -> tuple[float, str]:
    """(spread, verdict) of samples *b* against samples *a*."""
    sign = 1.0 if metric.better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread = max(_spread(a), _spread(b))
    if worse_by > bound:
        return spread, "worse"
    if spread > bound:
        separated = (
            max(b) < min(a) if metric.better == "lower" else min(b) > max(a)
        )
        return spread, "better" if separated else "unresolved"
    # One sample a side says nothing about spread, so it cannot carry a
    # gain -- unless the metric repeats exactly, when any difference is real.
    measured = bound <= EXACT or min(len(a), len(b)) >= 2
    if measured and -worse_by > max(spread, EXACT):
        return spread, "better"
    return spread, "same"


def _by_key(results: dict, trace: int) -> dict:
    out: dict = {}
    for run in results["runs"]:
        if run["trace"] == trace:
            out.setdefault((run["workload"], run["seed"]), []).append(run)
    return out


def _samples(runs: list[dict], name: str) -> list[float]:
    out: list[float] = []
    for run in runs:
        stats = run.get("stats", {}).get(name)
        out.extend(stats["samples"] if stats else [run["metrics"][name]["value"]])
    return out


def compare(a: dict, b: dict) -> tuple[list[Row], list[str]]:
    """Rows for every end-to-end metric, and what differs among the values
    that repeat exactly on one commit (fingerprints, per-layer counts)."""
    rows: list[Row] = []
    differing: list[str] = []
    runs_a, runs_b = _by_key(a, 0), _by_key(b, 0)
    if set(runs_a) != set(runs_b):
        raise ValueError(
            "the two sets hold different (workload, seed) runs: "
            f"{sorted(set(runs_a) ^ set(runs_b))}"
        )
    for key in sorted(runs_a):
        workload, seed = key
        for run in runs_a[key] + runs_b[key]:
            if not run["correct"]:
                differing.append(f"{workload} seed {seed}: a run is not correct")
        prints = {
            json.dumps(run["fingerprint"])
            for run in runs_a[key] + runs_b[key]
        }
        if len(prints) > 1:
            differing.append(
                f"{workload} seed {seed}: (sha256, sim seconds, events) differ: "
                f"{sorted(prints)}"
            )
        for metric in END_TO_END:
            sa = _samples(runs_a[key], metric.name)
            sb = _samples(runs_b[key], metric.name)
            bound = EXACT if metric.exact else metric.bound
            spread, verdict = judge(metric, sa, sb, bound)
            rows.append(Row(
                workload, metric.name, metric.unit,
                statistics.median(sa), statistics.median(sb),
                bound, spread, verdict,
            ))
    traced_a, traced_b = _by_key(a, 1), _by_key(b, 1)
    for key in sorted(set(traced_a) & set(traced_b)):
        first = traced_a[key][0]["metrics"]
        for run in traced_a[key][1:] + traced_b[key]:
            for name, cell in run["metrics"].items():
                if PER_LAYER_BY_NAME[name].exact and cell["value"] != first[name]["value"]:
                    differing.append(
                        f"{key[0]} seed {key[1]}: {name} is "
                        f"{first[name]['value']} in one run and {cell['value']} "
                        f"in another"
                    )
    return rows, differing


def report(a: dict, b: dict, *, same_commit: bool = False) -> tuple[str, bool]:
    """The printable comparison and whether B passes.

    B fails on any ``worse`` row. Deterministic values that differ fail it
    only when both sets come from the *same commit* (``selfcheck``); between
    two commits they are listed, since a change may mean to move them.
    """
    rows, differing = compare(a, b)
    lines = [row.render() for row in rows]
    lines += [f"DIFFERS: {text}" for text in differing]
    tally = {v: sum(r.verdict == v for r in rows)
             for v in ("better", "same", "worse", "unresolved")}
    lines.append(
        ", ".join(f"{n} {v}" for v, n in tally.items())
        + f", {len(differing)} deterministic values differ"
    )
    passed = tally["worse"] == 0 and not (same_commit and differing)
    return "\n".join(lines), passed


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
