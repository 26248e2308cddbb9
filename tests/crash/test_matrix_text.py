"""The four CLI crash matrices, pinned as text; bad aims rejected up front.

``CrashCell.detail`` feeds the chaos soak's metrics JSON, whose CI job
only compares a run with itself — so the rendered matrices are pinned
here against the values the five-cell-family harness produced before it
was folded into ``run_cell`` / ``run_matrix``. A step or victim that does
not exist must raise (exit 2 on every CLI path) before anything is
simulated, instead of running two jobs and reporting a FAIL cell that
reads like an invariant violation.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.crash import harness
from repro.crash.harness import SERVER_STEPS, STEPS, run_cell, run_matrix

#: (kind, survive) -> SHA-256 of run_matrix(seed=7).render() at the parent
#: commit: `faults --crash-at each-step [--ft]` and
#: `ioserver --crash-step each-step [--failover]`.
RENDER_SHA256 = {
    ("tcio", False): "81fe24ae4080b443f40e500bcb7d9c7be8a9840dce4b66ad22edc39f3922e2ec",
    ("tcio", True): "4229021eabf54a9c504415da0d1eebe59aeed14570186e7e3c8a7a47b5a2feed",
    ("server", False): "20c7023593ccdbb57d9560b41eaf4e9bb37f67e76b3ca301a09a83c216ed4449",
    ("server", True): "23d92ef8308c31d6846b933ce7d449e4c5a3736dc77c311faceb7b8b3556f950",
}


@pytest.mark.parametrize("kind,survive", sorted(RENDER_SHA256), ids=str)
def test_cli_matrix_text_is_pinned(kind, survive):
    matrix = run_matrix(kind=kind, survive=survive, seed=7)
    assert matrix.ok, matrix.render()
    steps = SERVER_STEPS if kind == "server" else STEPS
    columns = 2 if (kind, survive) == ("tcio", False) else 1
    control = 1 if (kind, survive) == ("tcio", False) else 0
    assert len(matrix.cells) == columns * len(steps) + control
    digest = hashlib.sha256(matrix.render().encode()).hexdigest()
    assert digest == RENDER_SHA256[(kind, survive)]


@pytest.fixture
def no_simulation(monkeypatch):
    """Any simulated job fails the test."""

    def boom(*args, **kwargs):
        raise AssertionError("a simulation ran before the aim was validated")

    monkeypatch.setattr(harness, "_run", boom)
    monkeypatch.setattr("repro.ioserver.run_ioserver", boom)


@pytest.mark.parametrize(
    "argv,accepted",
    [
        (["faults", "--crash-at", "bogus"], STEPS),
        (["faults", "--crash-at", "bogus", "--ft"], STEPS),
        (["ioserver", "--crash-step", "bogus"], SERVER_STEPS),
        (["ioserver", "--crash-step", "bogus", "--failover"], SERVER_STEPS),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_unknown_step_exits_2_on_every_cli_path(argv, accepted, no_simulation, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "unknown crash step 'bogus'" in out
    assert str(list(accepted)) in out


def test_missing_victim_exits_2(no_simulation, capsys):
    argv = ["faults", "--crash-at", "each-step", "--crash-procs", "1"]
    assert main(argv) == 2
    assert "victim rank 1 does not exist" in capsys.readouterr().out


def test_run_cell_validates_before_simulating(no_simulation):
    with pytest.raises(ValueError, match="choose from"):
        run_cell("srv-apply")  # a server step aimed at bare TCIO
    with pytest.raises(ValueError, match="choose from"):
        run_cell("mid-flush", kind="server")
    with pytest.raises(ValueError, match="does not exist"):
        run_cell("mid-flush", nranks=4, victim=4)
    with pytest.raises(ValueError, match="unknown crash step"):
        run_matrix(steps=("pre-deposit", "bogus"))
