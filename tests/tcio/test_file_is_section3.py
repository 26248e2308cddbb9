"""``tcio/file.py`` is the paper's Section III and nothing else.

The epoch journal, survive-and-complete, node-leader staging and the
retry/degrade fallback each live in a module of their own and are bound to
a handle once, at ``open``. Two structural checks keep it that way: an AST
walk over ``file.py``'s imports (module- and function-level; mentions in
comments and docstrings do not trip it), and one open per valid
``(journal, aggregation, ft)`` combination asserting which stage
references the handle holds — none at all for the default configuration
on an unfaulted world.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.simmpi import run_mpi
from repro.tcio import TCIO_RDONLY, TCIO_WRONLY, TcioConfig, tcio_open
from tests.conftest import make_test_cluster

FILE_PY = Path(__file__).resolve().parents[2] / "src" / "repro" / "tcio" / "file.py"
#: What the stage modules import on the handle's behalf.
FORBIDDEN = ("repro.crash", "repro.topo", "repro.faults.plan", "repro.simmpi.ft", "warnings")
STAGES = ("_epoch", "_survive", "_nodedrain", "_degrade")
#: The nine feature fields that left the handle with the stages.
GONE = (
    "_ft", "_shadow", "_unreachable_owners", "_topo", "_node_comm", "_staging",
    "_leader_world", "_staging_degraded", "_journal_pos",
)


def forbidden_imports(path: Path) -> list[str]:
    """Every import of a forbidden module in *path*, as 'line: module'."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        hits += [
            f"{node.lineno}: {name}"
            for name in names
            if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
        ]
    return hits


def test_file_py_imports_no_stage_dependency():
    assert forbidden_imports(FILE_PY) == []


def test_the_checker_itself_detects_imports(tmp_path: Path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import warnings\nfrom repro.topo import NodeTopology\n"
        "def f():\n    from repro.crash.journal import commit_name\n"
        "from repro.faults.plan import RMA_FAIL_DELAY\nimport repro.simmpi.ft\n"
        "from repro.faults.retry import pfs_write\n"  # allowed
    )
    assert len(forbidden_imports(bad)) == 5


def stages_of(config: TcioConfig, *, mode: int = TCIO_WRONLY, faults=None) -> list[set[str]]:
    """Per rank: the stage references a handle opened with *config* holds."""

    def main(env):
        if mode == TCIO_RDONLY:
            env.pfs.create("f")
        fh = yield from tcio_open(env, "f", mode, config)
        present = {name for name in STAGES if getattr(fh, name) is not None}
        assert not [name for name in GONE if hasattr(fh, name)]
        yield from fh.close()
        return present

    cluster = make_test_cluster(nodes=2, cores_per_node=2)
    return run_mpi(4, main, cluster=cluster, faults=faults).returns


@pytest.mark.parametrize(
    "journal,aggregation,ft,expected",
    [
        ("off", "flat", False, set()),
        ("off", "node", False, {"_nodedrain"}),
        ("epoch", "flat", False, {"_epoch"}),
        ("epoch", "flat", True, {"_epoch", "_survive"}),
        ("epoch", "node", False, {"_epoch", "_nodedrain"}),
    ],
)
def test_stages_bound_at_open(journal, aggregation, ft, expected):
    config = TcioConfig(segment_size=64, journal=journal, aggregation=aggregation, ft=ft)
    assert stages_of(config) == [expected] * 4


def test_fault_plan_arms_the_degrade_stage_and_read_handles_take_no_write_stage():
    every = TcioConfig(segment_size=64, journal="epoch", aggregation="node")
    assert stages_of(every, mode=TCIO_RDONLY) == [set()] * 4
    plan = FaultPlan(FaultSpec(), 7)
    assert stages_of(TcioConfig(segment_size=64), faults=plan) == [{"_degrade"}] * 4
