"""The committed first results show the separations the workloads exist for."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.e2e.metrics import LAYERS
from benchmarks.e2e.workloads import WORKLOADS

FIRST = Path(__file__).resolve().parents[1] / "results" / "first.json"


@pytest.fixture(scope="module")
def shares():
    """workload -> layer -> share of the traced iteration's self time."""
    out = {}
    for run in json.loads(FIRST.read_text())["runs"]:
        if run["trace"] == 1:
            self_s = {
                layer: run["metrics"][f"host_self_s.{layer}"]["value"]
                for layer in LAYERS
            }
            total = sum(self_s.values())
            out[run["workload"]] = {k: v / total for k, v in self_s.items()}
    return out


def test_every_workload_has_both_kinds_of_run_and_is_correct():
    runs = json.loads(FIRST.read_text())["runs"]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w.name, trace) for w in WORKLOADS for trace in (0, 1)
    )
    assert all(r["correct"] and r["failed"] == 0 and not r["tiny"] for r in runs)


def test_tcio_leads_on_tcio_fine_and_is_absent_where_bypassed(shares):
    fine = shares["tcio-fine"]
    assert max(fine, key=fine.get) == "tcio"
    assert shares["ocio-fine"]["tcio"] == 0
    assert shares["mpiio-indep"]["tcio"] == 0


def test_pfs_and_sim_lead_on_mpiio_indep(shares):
    indep = shares["mpiio-indep"]
    assert max(indep, key=indep.get) == "pfs"
    assert indep["pfs"] + indep["sim"] > 0.5


def test_tcio_bulk_uses_the_same_layer_the_other_way(shares):
    bulk, fine = shares["tcio-bulk"], shares["tcio-fine"]
    assert bulk["tcio"] < fine["tcio"] / 2
    assert bulk["pfs"] + bulk["sim"] + bulk["simmpi"] > bulk["tcio"]
