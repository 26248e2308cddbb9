"""``compare`` verdicts on synthetic result pairs."""

from __future__ import annotations

import pytest

from benchmarks.e2e.compare import compare, judge, report
from benchmarks.e2e.metrics import END_TO_END, Metric

LOWER = Metric("host_s", "s", "lower", 0.10)
HIGHER = Metric("app_calls_per_host_s", "calls/s", "higher", 0.10)


@pytest.mark.parametrize(
    "metric, a, b, verdict",
    [
        (LOWER, [1.00, 1.01, 0.99, 1.00], [1.00, 1.02, 0.98, 1.01], "same"),
        (LOWER, [1.00, 1.01, 0.99, 1.00], [1.20, 1.21, 1.19, 1.20], "worse"),
        (LOWER, [1.00, 1.01, 0.99, 1.00], [0.80, 0.81, 0.79, 0.80], "better"),
        # inside the bound, but the samples spread wider than the bound
        (LOWER, [1.0, 1.3, 0.8, 1.1], [1.05, 1.3, 0.8, 1.0], "unresolved"),
        # spread wide, yet every B sample beats every A sample
        (LOWER, [1.0, 1.3, 0.9, 1.1], [0.5, 0.7, 0.4, 0.6], "better"),
        (HIGHER, [100, 101, 99, 100], [80, 81, 79, 80], "worse"),
        (HIGHER, [100, 101, 99, 100], [120, 121, 119, 120], "better"),
        # one sample a side: no spread is known, so no gain can be claimed
        (LOWER, [1.0], [0.9], "same"),
        (LOWER, [1.0], [1.3], "worse"),
    ],
)
def test_judge(metric, a, b, verdict):
    assert judge(metric, a, b, metric.bound)[1] == verdict


def _run(workload="w", seed=0, trace=0, host=1.0, sim=0.5, events=100, **over):
    metrics = {m.name: {"value": 1.0, "unit": m.unit} for m in END_TO_END}
    metrics["sim_total_s"]["value"] = sim
    metrics["host_s"]["value"] = host
    run = {
        "workload": workload, "seed": seed, "trace": trace, "correct": True,
        "metrics": metrics,
        "stats": {"host_s": {"samples": [host * 0.99, host, host * 1.01]}},
        "fingerprint": ["sha", sim, sim, None, events],
    }
    run.update(over)
    return run


def test_rows_cover_every_workload_and_metric():
    a = {"runs": [_run("w1"), _run("w2")]}
    rows, differing = compare(a, a)
    assert [(r.workload, r.metric) for r in rows] == [
        (w, m.name) for w in ("w1", "w2") for m in END_TO_END
    ]
    assert {r.verdict for r in rows} == {"same"} and not differing
    assert "B/A" in rows[0].render() and "base A" in rows[0].render()


def test_simulated_seconds_are_held_to_equality_seed_for_seed():
    a = {"runs": [_run(sim=0.5)]}
    b = {"runs": [_run(sim=0.5 * (1 + 1e-6))]}
    rows, differing = compare(a, b)
    verdicts = {r.metric: r.verdict for r in rows}
    assert verdicts["sim_total_s"] == "worse"
    assert differing  # the fingerprints differ too
    assert report(a, b)[1] is False


def test_a_slower_host_fails_and_a_faster_one_passes():
    a = {"runs": [_run(host=1.0)]}
    text, passed = report(a, {"runs": [_run(host=1.5)]})
    assert not passed and "worse" in text
    assert report(a, {"runs": [_run(host=0.5)]})[1]


def test_differing_counts_fail_only_within_one_commit():
    a = {"runs": [_run(events=100)]}
    b = {"runs": [_run(events=90)]}
    assert report(a, b)[1] is True
    text, passed = report(a, b, same_commit=True)
    assert passed is False and "DIFFERS" in text


def test_traced_exact_metrics_are_compared_and_host_times_are_not():
    def traced(events, self_s):
        return _run(trace=1, metrics={
            "sim.events": {"value": events, "unit": "count"},
            "host_self_s.tcio": {"value": self_s, "unit": "s"},
        })

    a = {"runs": [_run(), traced(100, 1.0)]}
    assert compare(a, {"runs": [_run(), traced(100, 2.0)]})[1] == []
    differing = compare(a, {"runs": [_run(), traced(101, 1.0)]})[1]
    assert len(differing) == 1 and "sim.events" in differing[0]


def test_sets_must_hold_the_same_runs():
    with pytest.raises(ValueError):
        compare({"runs": [_run(seed=0)]}, {"runs": [_run(seed=1)]})
