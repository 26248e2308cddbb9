"""Sweep-spec format: JSON parsing, validation, deterministic enumeration."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import (
    SpecError,
    SweepSpec,
    grid,
    load_spec,
    parse_spec,
)

SPEC_TEXT = json.dumps({
    "name": "seg-sweep",
    "experiment": "fig5",
    "base": {"method": "TCIO", "nprocs": 8},
    "axes": {"len_array": [64, 256], "segment_bytes": [2048, 4096]},
})


class TestJsonFormat:
    def test_stored_provenance_is_a_runnable_spec(self, tmp_path):
        from repro.campaign.runner import run_sweep
        from repro.campaign.store import CampaignStore

        spec = grid(
            "fig5", name="provenance",
            base={"method": "TCIO", "nprocs": 4}, len_array=[64],
        )
        store = CampaignStore(tmp_path)
        run_sweep(spec, store=store)
        (record,) = store.records()
        assert parse_spec(json.dumps(record.meta["spec"])) == spec

    def test_malformed_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            parse_spec('{"experiment": "fig5",')

    def test_non_object_top_level_rejected(self):
        with pytest.raises(SpecError, match="must be a mapping"):
            parse_spec('["fig5"]')


class TestSweepSpec:
    def test_parse_spec(self):
        spec = parse_spec(SPEC_TEXT)
        assert spec.name == "seg-sweep"
        assert spec.experiment == "fig5"
        assert spec.size() == 4

    def test_points_row_major_and_deterministic(self):
        spec = parse_spec(SPEC_TEXT)
        labels = [p.label() for p in spec.points()]
        assert labels == [p.label() for p in spec.points()]
        # first axis outermost, last axis fastest
        assert labels[0].startswith("fig5(len_array=64")
        assert "segment_bytes=2048" in labels[0]
        assert "segment_bytes=4096" in labels[1]
        assert "len_array=256" in labels[2]

    def test_grid_constructor_equivalent(self):
        spec = grid(
            "fig5", name="seg-sweep",
            base={"method": "TCIO", "nprocs": 8},
            len_array=[64, 256], segment_bytes=[2048, 4096],
        )
        assert spec.points() == parse_spec(SPEC_TEXT).points()

    def test_to_dict_round_trips(self):
        spec = parse_spec(SPEC_TEXT)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_load_spec_uses_stem_as_default_name(self, tmp_path):
        path = tmp_path / "mysweep.json"
        path.write_text(
            '{"experiment": "fig5", "base": {"method": "TCIO", "nprocs": 4},'
            ' "axes": {"len_array": [64]}}'
        )
        assert load_spec(path).name == "mysweep"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SpecError, match="unknown experiment"):
            grid("fig99", len_array=[64])

    def test_misspelt_parameter_rejected_naming_the_accepted_set(self):
        # the runners only point.get() the names they know: a typo used
        # to run identical cells instead of failing
        with pytest.raises(SpecError, match="len_aray.*accepted.*len_array"):
            grid(
                "fig5", base=dict(method="TCIO", nprocs=2, len_array=64),
                len_aray=[1, 2],
            )
        with pytest.raises(SpecError, match="segments"):
            grid("fig5", base={"segments": 8}, len_array=[64])

    def test_retired_batched_writeback_axis_rejected(self):
        with pytest.raises(SpecError, match="batched_writeback"):
            parse_spec(json.dumps({
                "name": "old", "experiment": "fig5",
                "base": {"method": "TCIO", "nprocs": 4, "len_array": 64},
                "axes": {"batched_writeback": [False, True]},
            }))

    def test_default_grids_use_only_accepted_parameters(self):
        from repro.perf.points import EXPERIMENTS, accepted_params, points_for

        for experiment in EXPERIMENTS:
            for point in points_for(experiment):
                assert {k for k, _ in point.params} <= accepted_params(experiment)

    def test_base_axis_overlap_rejected(self):
        with pytest.raises(SpecError, match="both base and axis"):
            grid("fig5", base={"len_array": 64}, len_array=[64])

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="no values"):
            grid("fig5", len_array=[])

    def test_non_scalar_value_rejected(self):
        with pytest.raises(SpecError, match="non-scalar"):
            SweepSpec(
                name="x", experiment="fig5",
                axes=(("len_array", ((1, 2),)),),
            )

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            parse_spec(
                '{"experiment": "fig5", "bogus": 1, "axes": {"len_array": [64]}}'
            )
