"""``python -m repro campaign ...`` end-to-end through the CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

SPEC = """\
{"experiment": "fig5",
 "base": {"method": "TCIO", "nprocs": 4},
 "axes": {"len_array": [64, 256]}}
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "lenscan.json"
    path.write_text(SPEC)
    return path


class TestCampaignCli:
    def test_run_then_query(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", str(spec_file), "--store", store]) == 0
        out = capsys.readouterr().out
        assert "sweep 'lenscan': ran 2 fig5 point(s)" in out

        assert main([
            "campaign", "query", "--store", store,
            "--experiment", "fig5", "--where", "len_array=64",
        ]) == 0
        out = capsys.readouterr().out
        assert "len_array=64" in out
        assert "-- 1 record(s) of 2" in out

    def test_where_values_parse_as_json_else_stay_strings(
        self, tmp_path, spec_file, capsys
    ):
        store = str(tmp_path / "store")
        main(["campaign", "run", str(spec_file), "--store", store])
        capsys.readouterr()

        def count(*where: str) -> str:
            argv = ["campaign", "query", "--store", store]
            for item in where:
                argv += ["--where", item]
            assert main(argv) == 0
            return capsys.readouterr().out.splitlines()[-1]

        assert count("len_array=64") == f"-- 1 record(s) of 2 in {store}"
        assert count('len_array="64"') == f"-- 0 record(s) of 2 in {store}"
        assert count("method=TCIO") == f"-- 2 record(s) of 2 in {store}"
        assert count("method=TCIO", "len_array=256") == (
            f"-- 1 record(s) of 2 in {store}"
        )

    def test_query_distinct_and_json(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store")
        main(["campaign", "run", str(spec_file), "--store", store])
        capsys.readouterr()
        assert main([
            "campaign", "query", "--store", store, "--distinct", "len_array",
        ]) == 0
        assert capsys.readouterr().out.split() == ["64", "256"]
        assert main(["campaign", "query", "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2

    def test_report_chart_and_svg(self, tmp_path, spec_file, capsys):
        store = str(tmp_path / "store")
        svg_path = tmp_path / "chart.svg"
        main(["campaign", "run", str(spec_file), "--store", store])
        capsys.readouterr()
        assert main([
            "campaign", "report", "--store", store,
            "--experiment", "fig5", "-x", "len_array",
            "-y", "write_throughput", "--svg", str(svg_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "write_throughput vs len_array" in out
        assert svg_path.read_text().startswith("<svg ")

    def test_report_smoke_is_bit_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        store = str(tmp_path / "store")
        for out in (out1, out2):
            assert main([
                "campaign", "report", "--smoke",
                "--store", store, "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        body = out1.read_text()
        assert "campaign smoke report" in body
        assert "<svg " in body

    def test_report_section_replay(self, tmp_path, capsys):
        from repro.campaign.store import CampaignStore
        from repro.experiments.common import SMOKE
        from repro.experiments.report import build_section
        from repro.perf.campaign import CampaignRunner
        from repro.perf.points import points_for

        store = str(tmp_path / "store")
        # what ``report --store`` leaves behind: replay needs no ingest hop
        CampaignRunner(1, store=CampaignStore(store)).run(
            points_for("fig5", SMOKE)
        )
        assert main([
            "campaign", "report", "--store", store,
            "--section", "fig5", "--scale", "smoke",
        ]) == 0
        out = capsys.readouterr().out
        assert out.rstrip("\n") == build_section(
            "fig5", SMOKE, verbose=False
        ).rstrip("\n")

    def test_explore_bisect(self, tmp_path, capsys):
        assert main([
            "campaign", "explore", "--search", "bisect",
            "--candidates", "8,12,16,24",
        ]) == 0
        out = capsys.readouterr().out
        assert "crossover search" in out
        assert "frontier: between nprocs=12 and nprocs=16" in out
        assert "skipped vs the exhaustive grid" in out

    def test_explore_store_rerun_simulates_nothing(self, tmp_path, capsys):
        argv = [
            "campaign", "explore", "--candidates", "8,12,16",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 point(s) served, 6 simulated" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "6 point(s) served, 0 simulated" in warm
        # same search, same bracket: only the store line differs
        assert cold.splitlines()[:-1] == warm.splitlines()[:-1]

    def test_ingest_metrics_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "run.metrics.json"
        snap.write_text(json.dumps({"engine.events": 42}))
        store = str(tmp_path / "store")
        assert main([
            "campaign", "ingest", "--store", store, "--metrics", str(snap),
        ]) == 0
        assert "ingested metrics snapshot" in capsys.readouterr().out
        assert main([
            "campaign", "query", "--store", store, "--source", "metrics",
        ]) == 0
        assert "-- 1 record(s) of 1" in capsys.readouterr().out

    def test_ingest_nothing_fails(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "ingest", "--store", store]) == 1
        capsys.readouterr()

    def test_report_without_mode_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "report", "--store", str(tmp_path)])

    def test_expected_errors_exit_cleanly(self, tmp_path, capsys):
        # ReproError subclasses become exit 1 + a message, not a traceback
        assert main(["campaign", "run", str(tmp_path / "missing.json")]) == 1
        assert "error: cannot read sweep spec" in capsys.readouterr().err
        assert main([
            "campaign", "report", "--store", str(tmp_path / "empty"),
            "--section", "fig5", "--scale", "smoke",
        ]) == 1
        assert "store is missing results" in capsys.readouterr().err
