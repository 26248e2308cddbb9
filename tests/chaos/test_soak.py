"""The chaos soak: randomized-but-replayable fault scenarios.

The soak's contract is twofold: every drawn scenario satisfies the
survive-and-complete invariants (that's the robustness claim), and the
whole campaign — drawn parameters, schedules, metrics document — is a
pure function of the root seed (that's what makes a violating iteration
reproducible from its ``(seed, index)`` alone, and what the CI
determinism job byte-compares).
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    FAMILIES,
    ChaosConfig,
    ChaosError,
    ChaosReport,
    run_iteration,
    run_soak,
)
from repro.cli import main as cli_main

SOAK_ITERATIONS = 30


@pytest.fixture(scope="module")
def report() -> ChaosReport:
    return run_soak(ChaosConfig(iterations=SOAK_ITERATIONS, seed=5))


def test_soak_has_zero_violations(report):
    assert report.ok, report.violations
    assert len(report.iterations) == SOAK_ITERATIONS


def test_soak_exercises_every_family(report):
    seen = {it.family for it in report.iterations}
    assert seen == set(FAMILIES)


def test_soak_is_deterministic(report):
    again = run_soak(ChaosConfig(iterations=SOAK_ITERATIONS, seed=5))
    assert again.metrics_json() == report.metrics_json()


def test_different_seed_draws_a_different_schedule(report):
    other = run_soak(ChaosConfig(iterations=SOAK_ITERATIONS, seed=6))
    assert other.metrics_json() != report.metrics_json()
    assert [it.params for it in other.iterations] != [
        it.params for it in report.iterations
    ]


def test_iteration_is_replayable_in_isolation(report):
    # A violating row's (seed, index) must be enough to rerun exactly
    # that scenario: re-running any single iteration standalone matches
    # the campaign's record for it.
    config = ChaosConfig(iterations=SOAK_ITERATIONS, seed=5)
    for index in (0, SOAK_ITERATIONS // 2, SOAK_ITERATIONS - 1):
        alone = run_iteration(config, index)
        assert alone.row() == report.iterations[index].row()


def test_family_subset_and_validation():
    only = run_soak(ChaosConfig(iterations=4, seed=1, families=("tenancy",)))
    assert only.ok
    assert {it.family for it in only.iterations} == {"tenancy"}
    with pytest.raises(ChaosError):
        ChaosConfig(iterations=0).validate()
    with pytest.raises(ChaosError):
        ChaosConfig(families=("no-such-family",)).validate()


def test_metrics_payload_shape(report):
    payload = report.metrics_payload()
    assert payload["chaos"]["violations"] == 0
    assert payload["chaos"]["seed"] == 5
    assert sum(payload["chaos"]["by_family"].values()) == SOAK_ITERATIONS
    assert len(payload["rows"]) == SOAK_ITERATIONS
    for row in payload["rows"]:
        assert row["ok"] is True
        assert row["family"] in FAMILIES
        assert row["params"]


def test_cli_chaos_smoke(tmp_path, capsys):
    out = tmp_path / "chaos.json"
    code = cli_main(
        ["chaos", "--iterations", "4", "--seed", "9",
         "--metrics-out", str(out)]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "zero invariant violations" in captured
    assert out.exists()
    # The written document is the canonical serialization.
    again = run_soak(ChaosConfig(iterations=4, seed=9))
    assert out.read_text() == again.metrics_json()


def test_cli_chaos_rejects_unknown_family(capsys):
    code = cli_main(["chaos", "--iterations", "2", "--families", "bogus"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
