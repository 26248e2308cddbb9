"""Smoke tests of every experiment harness at the SMOKE scale.

The full campaign's acceptance checks run in benchmarks/ (and are recorded
in EXPERIMENTS.md); here we verify each harness runs end to end, produces
well-formed series, and that the scale-independent claims (Table III, the
OOM mechanism, ART ordering) hold even at tiny sizes.
"""

import pytest

from repro.bench.config import Method
from repro.experiments.common import SMOKE, paper_size_label, widening_gap
from repro.experiments.fig5_scaling import run_fig5
from repro.experiments.fig6_7_filesize import run_fig6_7
from repro.experiments.fig9_10_art import run_fig9_10
from repro.experiments.programs_loc import program_listings, program_sources
from repro.experiments.table3_comparison import build_table3, table3_shape_holds


class TestCommonHelpers:
    def test_paper_size_label_full_grid(self):
        # LEN=1M elements at 64 procs -> 768 MB; LEN=64M -> 48 GB
        from repro.cluster.lonestar import LONESTAR_SCALE

        assert paper_size_label((1 * 2**20) // LONESTAR_SCALE, 64) == "768MB"
        assert paper_size_label((64 * 2**20) // LONESTAR_SCALE, 64) == "48GB"

    def test_widening_gap(self):
        assert widening_gap([1.0, 2.0], [1.0, 1.0])
        assert not widening_gap([2.0, 1.0], [1.0, 1.0])
        assert not widening_gap([None, 1.0], [1.0, 1.0])


class TestFig5Smoke:
    @pytest.fixture(scope="class")
    def data(self):
        return run_fig5(SMOKE)

    def test_series_complete(self, data):
        assert data.proc_counts == list(SMOKE.proc_counts)
        for series in (data.write, data.read):
            for name in ("TCIO", "OCIO"):
                assert len(series[name]) == len(SMOKE.proc_counts)
                assert all(v is not None and v > 0 for v in series[name])

    def test_render_mentions_both_panels(self, data):
        text = data.render()
        assert "write throughput" in text and "read throughput" in text


class TestFig67Smoke:
    @pytest.fixture(scope="class")
    def data(self):
        return run_fig6_7(SMOKE)

    def test_tcio_completes_everywhere(self, data):
        assert data.tcio_completes_everywhere()

    def test_series_lengths(self, data):
        assert len(data.size_labels) == len(SMOKE.filesize_lens)
        assert len(data.write["OCIO"]) == len(SMOKE.filesize_lens)


class TestFig910Smoke:
    @pytest.fixture(scope="class")
    def data(self):
        return run_fig9_10(SMOKE)

    def test_tcio_beats_vanilla_even_at_smoke_scale(self, data):
        assert data.tcio_always_faster()

    def test_speedup_is_large(self, data):
        speedups = [s for s in data.tcio_speedup("dump") if s is not None]
        assert speedups and max(speedups) > 5

    def test_render(self, data):
        assert "ART write" in data.render()


class TestProgramListings:
    def test_sources_extracted(self):
        sources = program_sources()
        assert "MPI_File" not in sources["Program 3 (TCIO)"]
        assert "set_view" in sources["Program 2 (OCIO)"]
        assert "write_at" in sources["Program 3 (TCIO)"]

    def test_effort_direction(self):
        _sources, metrics, summary = program_listings()
        assert metrics[Method.OCIO].statements > metrics[Method.TCIO].statements
        assert "statement ratio" in summary


class TestTable3:
    def test_shape_holds(self):
        rows, rendered = build_table3()
        assert table3_shape_holds(rows)
        assert "Transparent collective I/O" in rendered
        aspects = [r.aspect for r in rows]
        assert aspects == [
            "Application-level buffer",
            "File view",
            "Lines of code",
            "Memory efficiency",
            "Restriction",
        ]
