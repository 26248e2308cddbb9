"""CLI smoke tests."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Lonestar" in out
        assert "30 OSTs" in out

    def test_bench_tcio(self, capsys):
        assert main(["bench", "--method", "tcio", "--procs", "4", "--len", "64"]) == 0
        out = capsys.readouterr().out
        assert "write:" in out and "read:" in out

    def test_bench_by_table_i_code(self, capsys):
        assert main(["bench", "--method", "0", "--procs", "4", "--len", "64"]) == 0
        assert "OCIO" in capsys.readouterr().out

    def test_faults_bench(self, capsys):
        assert main(
            ["faults", "bench", "--seed", "1", "--rate", "0.2",
             "--procs", "4", "--len", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "faulted TCIO" in out
        assert "verified OK" in out
        assert "injected=" in out

    def test_bench_node_aggregation(self, capsys):
        assert main(
            ["bench", "--method", "tcio", "--procs", "4", "--len", "64",
             "--aggregation", "node"]
        ) == 0
        assert "write:" in capsys.readouterr().out

    def test_bench_rejects_unknown_aggregation(self):
        with pytest.raises(SystemExit):
            main(["bench", "--aggregation", "tree"])

    def test_topo_ablation(self, capsys):
        assert main(
            ["topo", "--procs", "16", "--cores-per-node", "4", "--len", "512"]
        ) == 0
        out = capsys.readouterr().out
        assert "topo ablation" in out
        assert "node/flat reduction" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "statement ratio" in out

    def test_trace_bench_tiny(self, capsys, tmp_path):
        out_dir = tmp_path / "traced"
        assert main(["trace", "bench", "--tiny", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "span timeline" in out
        trace = json.loads((out_dir / "bench.trace.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        metrics = json.loads((out_dir / "bench.metrics.json").read_text())
        assert "tcio" in metrics and "counters" in metrics

    @pytest.mark.parametrize("command, header", [
        ("fig5", "Fig. 5 (left): write throughput (MB/s)"),
        ("fig67", "Fig. 6: write throughput (MB/s); -- = failed run"),
        ("fig910", "Fig. 9: ART write throughput (MB/s); -- = exceeded 90-min cap"),
    ])
    def test_figure_smoke_grids(self, capsys, command, header):
        # the paper's figures, as README spells them
        assert main([command, "--smoke"]) == 0
        assert header in capsys.readouterr().out

    def test_tenancy_job_strings(self, capsys):
        # docs/tenancy.md's string form, without --matrix
        assert main(["tenancy", "--jobs", "a:tcio:2:128 b:mpiio:2:128"]) == 0
        out = capsys.readouterr().out
        assert "tenancy: 2 jobs shared one PFS (qos=fifo, seed=3)" in out
        assert "a (tcio x2)" in out and "b (mpiio x2)" in out
        assert "[ok]" in out and "ABORTED" not in out

    def test_trace_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["trace", "fig999"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
