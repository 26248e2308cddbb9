"""Sweep-spec format: parsing, validation, deterministic enumeration."""

from __future__ import annotations

import pytest

from repro.campaign.spec import (
    SpecError,
    SweepSpec,
    grid,
    load_spec,
    parse_document,
    parse_spec,
)

SPEC_TEXT = """\
# sweep segment size for one method at two scales
name: seg-sweep
experiment: fig5
base:
  method: TCIO
  nprocs: 8
axes:
  len_array: [64, 256]
  segment_bytes: [2048, 4096]
"""


class TestParser:
    def test_document_round_trip(self):
        doc = parse_document(SPEC_TEXT)
        assert doc == {
            "name": "seg-sweep",
            "experiment": "fig5",
            "base": {"method": "TCIO", "nprocs": 8},
            "axes": {"len_array": [64, 256], "segment_bytes": [2048, 4096]},
        }

    def test_scalar_coercion(self):
        doc = parse_document(
            "a: 3\nb: 2.5\nc: true\nd: false\ne: null\nf: 'x y'\ng: bare\n"
        )
        assert doc == {
            "a": 3, "b": 2.5, "c": True, "d": False,
            "e": None, "f": "x y", "g": "bare",
        }

    def test_block_lists(self):
        doc = parse_document("axes:\n  len:\n    - 1\n    - 2\n")
        assert doc == {"axes": {"len": [1, 2]}}

    def test_comments_and_blank_lines_skipped(self):
        doc = parse_document("# top\n\na: 1  # trailing\n")
        assert doc == {"a": 1}

    def test_hash_inside_quotes_is_not_a_comment(self):
        assert parse_document("a: 'x # y'\n") == {"a": "x # y"}

    def test_tabs_rejected(self):
        with pytest.raises(SpecError, match="tabs"):
            parse_document("a:\n\tb: 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            parse_document("a: 1\na: 2\n")

    def test_non_mapping_line_rejected(self):
        with pytest.raises(SpecError, match="key: value"):
            parse_document("just words\n")


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
        path = tmp_path / "mysweep.yaml"
        path.write_text(
            "experiment: fig5\nbase:\n  method: TCIO\n  nprocs: 4\n"
            "axes:\n  len_array: [64]\n"
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
            parse_spec(
                "name: old\nexperiment: fig5\nbase:\n  method: TCIO\n  nprocs: 4\n"
                "  len_array: 64\naxes:\n  batched_writeback: [false, true]\n"
            )

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
            parse_spec("experiment: fig5\nbogus: 1\naxes:\n  len_array: [64]\n")
