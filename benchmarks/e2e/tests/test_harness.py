"""The harness on the tiny sizing of every workload."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, benchmark_json
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS, Outcome, prepare

NAMES = [w.name for w in WORKLOADS]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two tiny traced runs of every workload, in this process."""
    out = tmp_path_factory.mktemp("traces")
    return {
        w.name: [
            harness.run_traced(w, 3, tiny=True, out_dir=out) for _ in range(2)
        ]
        for w in WORKLOADS
    }, out


@pytest.fixture(scope="module")
def end_to_end():
    return {
        w.name: harness.run_end_to_end(w, 3, 0.0, tiny=True, setup_samples=1)
        for w in WORKLOADS
    }


# ----------------------------------------------------------------------
# the declared names
# ----------------------------------------------------------------------


def test_benchmark_json_is_the_declaration():
    root = Path(__file__).resolve().parents[3]
    assert json.loads((root / "BENCHMARK.json").read_text()) == benchmark_json()


def test_declared_names_fit_the_contract():
    doc = benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(set(names)) == len(names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted(name, end_to_end, traced):
    doc = end_to_end[name]
    assert list(doc["metrics"]) == [m.name for m in END_TO_END]
    assert all(cell["value"] != 0 for cell in doc["metrics"].values())
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    doc = traced[0][name][0]
    assert list(doc["metrics"]) == [m.name for m in PER_LAYER]
    assert doc["correct"]
    assert set(json.loads(harness.last_line(doc))) == {
        "correct", "attempted", "failed", "metrics"
    }


@pytest.mark.parametrize("name", NAMES)
def test_no_workload_reports_zero_simulated_seconds(name, end_to_end):
    # BENCH_7/8 record sim_seconds 0.0 for the ioserver point.
    assert end_to_end[name]["metrics"]["sim_total_s"]["value"] > 0


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_across_two_runs(name, traced):
    first, second = (run["metrics"] for run in traced[0][name])
    for metric in PER_LAYER:
        if metric.exact:
            assert first[metric.name] == second[metric.name], metric.name
    assert traced[0][name][0]["fingerprint"] == traced[0][name][1]["fingerprint"]


@pytest.mark.parametrize("name", NAMES)
def test_seed_feeds_the_seeded_workloads_only(name):
    workload = BY_NAME[name]
    one = prepare(workload, 1, tiny=True)
    two = prepare(workload, 2, tiny=True)
    assert (one.expected_sha256 != two.expected_sha256) == workload.seeded
    assert workload.seeded == (name in ("art-restart", "ioserver-trace"))
    assert prepare(workload, 1, tiny=True).expected_sha256 == one.expected_sha256


# ----------------------------------------------------------------------
# layers, as measured
# ----------------------------------------------------------------------


def test_bypassed_layers_read_zero(traced):
    def calls(name, layer):
        return traced[0][name][0]["metrics"][f"host_calls.{layer}"]["value"]

    assert calls("tcio-fine", "tcio") > 0 and calls("tcio-fine", "mpiio") == 0
    assert calls("ocio-fine", "tcio") == 0 and calls("ocio-fine", "mpiio") > 0
    assert calls("mpiio-indep", "tcio") == 0
    assert calls("tcio-journal-node", "crash") > 0 and calls("tcio-fine", "crash") == 0
    assert calls("ioserver-trace", "ioserver") > 0 and calls("art-restart", "art") > 0


def test_trace_file_holds_spans_and_the_layer_graph(traced):
    docs, out = traced
    doc = json.loads((out / "tcio-fine.trace.json").read_text())
    names = [s["name"] for s in doc["spans"]]
    for expected in ("run", "setup", "warm-up", "iteration", "iteration.traced",
                     "phase", "verify", "phase.write", "phase.read"):
        assert expected in names
    by_id = {s["id"]: s for s in doc["spans"]}
    assert {s["run"] for s in doc["spans"]} == {"tcio-fine-seed3"}
    for span in doc["spans"]:
        assert span["end_s"] >= span["start_s"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start_s"] <= span["start_s"]
            assert span["end_s"] <= parent["end_s"]
    graph = doc["graph"]
    assert any(e["from"] == "bench" and e["to"] == "tcio" for e in graph["edges"])
    assert 0.5 < graph["layer_self_sum_over_traced_host_s"] < 1.05


# ----------------------------------------------------------------------
# failures are counted, not hidden
# ----------------------------------------------------------------------


def test_a_wrong_byte_fails_every_call_of_the_iteration():
    good = prepare(BY_NAME["tcio-fine"], 0, tiny=True)
    bad = replace(good, expected_sha256="0" * 64)
    it = harness.iterate(bad)
    assert harness.failed_calls(good, it, it.fingerprint) == 0
    assert harness.failed_calls(bad, it, it.fingerprint) == bad.app_calls


def test_a_drifting_iteration_fails():
    prepared = prepare(BY_NAME["mpiio-indep"], 0, tiny=True)
    it = harness.iterate(prepared)
    sha, total, write, read, events = it.fingerprint
    assert harness.failed_calls(
        prepared, it, (sha, total, write, read, events + 1)
    ) == prepared.app_calls


def test_a_raising_driver_fails_and_zero_simulated_seconds_fail():
    prepared = prepare(BY_NAME["ocio-fine"], 0, tiny=True)

    def boom():
        raise RuntimeError("boom")

    it = harness.iterate(replace(prepared, run=boom))
    assert it.outcome is None
    assert harness.failed_calls(prepared, it, None) == prepared.app_calls

    zero = replace(prepared, run=lambda: Outcome(
        prepared.expected_sha256, 0.0, 0.0, 0.0, 0, None))
    it = harness.iterate(zero)
    assert harness.failed_calls(zero, it, it.fingerprint) == zero.app_calls
