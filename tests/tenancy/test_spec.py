"""Scenario declarations: validation, jitter determinism, parsing."""

from __future__ import annotations

import pytest

from repro.tenancy import (
    JobSpec,
    TenancyScenario,
    parse_job,
    parse_scenario,
    two_job_scenario,
)
from repro.util.errors import TenancyError


class TestJobSpec:
    def test_defaults_are_valid(self):
        spec = JobSpec(name="a")
        assert spec.workload == "tcio"
        assert spec.nranks == 4
        assert spec.priority == 1.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"name": ""},
            {"name": "a/b"},
            {"name": "a", "workload": "posix"},
            {"name": "a", "nranks": 0},
            {"name": "a", "arrival": -1.0},
            {"name": "a", "priority": 0.0},
            {"name": "a", "journal": "wal"},
        ],
    )
    def test_invalid_specs_rejected(self, kw):
        with pytest.raises(TenancyError):
            JobSpec(**kw)

    def test_signature_ignores_arrival_and_priority(self):
        a = JobSpec(name="a", arrival=0.0, priority=1.0)
        b = JobSpec(name="a", arrival=5.0, priority=3.0)
        assert a.signature() == b.signature()


class TestScenario:
    def test_duplicate_job_names_rejected(self):
        with pytest.raises(TenancyError):
            TenancyScenario(jobs=(JobSpec(name="a"), JobSpec(name="a")))

    def test_effective_arrival_is_seeded_and_stable(self):
        sc = TenancyScenario(
            jobs=(JobSpec(name="a"), JobSpec(name="b")),
            seed=9,
            arrival_jitter=1e-3,
        )
        first = [sc.effective_arrival(j) for j in sc.jobs]
        second = [sc.effective_arrival(j) for j in sc.jobs]
        assert first == second
        assert all(0.0 <= t <= 1e-3 for t in first)
        # distinct jobs draw from distinct streams
        assert first[0] != first[1]

    def test_zero_jitter_means_declared_arrival(self):
        sc = TenancyScenario(jobs=(JobSpec(name="a", arrival=2e-4),))
        assert sc.effective_arrival(sc.jobs[0]) == 2e-4

    def test_solo_resets_arrival_and_jitter(self):
        sc = two_job_scenario(seed=1, jitter=1e-4, arrival_b=5e-4)
        solo = sc.solo("b")
        assert len(solo.jobs) == 1
        assert solo.arrival_jitter == 0.0
        assert solo.effective_arrival(solo.jobs[0]) == 0.0


class TestParsing:
    def test_parse_job_full_form(self):
        spec = parse_job("x:mpiio:8:1024")
        assert (spec.name, spec.workload, spec.nranks) == ("x", "mpiio", 8)
        assert spec.param_dict["len_array"] == 1024

    def test_parse_scenario_round_trip(self):
        sc = parse_scenario(
            ["a:tcio:2:128", "b:ocio:2"], seed=4, jitter=0.0, cores_per_node=4
        )
        assert [j.name for j in sc.jobs] == ["a", "b"]
        assert sc.seed == 4

    def test_parse_job_rejects_garbage(self):
        with pytest.raises(TenancyError):
            parse_job("only-a-name")
