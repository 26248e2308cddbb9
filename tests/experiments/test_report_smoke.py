"""Smoke test of the EXPERIMENTS.md generator at the tiny scale."""

from repro.cli import main as repro_main
from repro.experiments.common import SMOKE
from repro.experiments.report import generate_report


def main(argv: list[str]) -> int:
    """``python -m repro report ...``"""
    return repro_main(["report", *argv])


class TestReportGeneration:
    def test_smoke_report_contains_every_section(self):
        body = generate_report(SMOKE, verbose=False)
        for heading in (
            "Programs 2 & 3 and Table III",
            "Figure 5",
            "Figures 6 & 7",
            "Figures 9 & 10",
        ):
            assert heading in body
        # the scale-independent checks must pass even at smoke scale
        assert "PASS: TCIO listing needs no combine buffer" in body
        assert "PASS: Table III qualitative rows hold" in body
        assert "PASS: TCIO completes every dataset size" in body
        assert "PASS: TCIO faster than vanilla MPI-IO at every scale" in body

    def test_cli_writes_the_file(self, tmp_path):
        out = tmp_path / "R.md"
        assert main(["--smoke", "--output", str(out)]) == 0
        assert out.exists()
        assert "EXPERIMENTS" in out.read_text()

    def test_store_backed_report_matches_serial_and_replays(self, tmp_path, capsys):
        from repro.experiments.report import build_section

        def body(path):  # everything but the wall-clock footer
            return path.read_text().rsplit("---", 1)[0]

        serial, cold, warm = (tmp_path / n for n in ("a.md", "b.md", "c.md"))
        store = str(tmp_path / "store")
        assert main(["--smoke", "--output", str(serial)]) == 0
        assert main(["--smoke", "--store", store, "--output", str(cold)]) == 0
        assert main(["--smoke", "--store", store, "--output", str(warm)]) == 0
        assert body(serial) == body(cold) == body(warm)
        assert "store 0 hit(s)" in cold.read_text()
        assert "0 miss(es)" in warm.read_text()
        # the same store replays a section with no ingest step in between
        capsys.readouterr()
        assert repro_main([
            "campaign", "report", "--store", store,
            "--section", "fig5", "--scale", "smoke",
        ]) == 0
        assert capsys.readouterr().out.rstrip("\n") == build_section(
            "fig5", SMOKE, verbose=False
        ).rstrip("\n")


class TestCommittedReport:
    def test_table3_block_matches_a_full_scale_render(self):
        # Table III measures the executable listings by AST, so an edit to
        # a measured body (bench.synthetic._tcio_write is Program 3) moves
        # a paper-facing number; the committed block must follow it.
        from pathlib import Path

        from repro.experiments.common import FULL
        from repro.experiments.report import build_section

        committed = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()
        section = build_section("table3", FULL, verbose=False)
        assert f"\n\n{section}\n\n" in committed
