"""There is one launcher: one ``Engine(`` site and one spawn loop.

Every simulated job — a figure point, a crash cell, a tenancy scenario —
comes to life through :class:`repro.simmpi.mpi.Launcher`; ``run_mpi`` is
its one-job case and the tenancy runner an ordinary caller. A second
engine construction or spawn loop under ``src/repro`` would be a second
launcher with its own placement and abort rules, so CI fails on the
*call site*. The kernel also must not reach up into the tenancy layer
built on it.

Each job also has one recorder, handed to every component the launcher
builds for it, and never ``None``: the layers below test no recorder for
``None``, nothing under ``src/repro`` names a shared null tracer, and no
code outside ``repro.sim`` asks which process is running (the question a
per-operation metric router would ask). AST-based: comments and
docstrings do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"

#: The layers the launcher builds a job from, where the recorder is never
#: ``None`` (paths under ``src/repro``).
RECORDED_LAYERS = (
    "sim/engine.py",
    "netsim/fabric.py",
    "pfs/filesystem.py",
    "pfs/file.py",
    "pfs/lockmgr.py",
    "simmpi/mpi.py",
    "simmpi/comm.py",
    "simmpi/collectives.py",
    "simmpi/rma.py",
    "simmpi/ft.py",
    "mpiio/independent.py",
    "mpiio/twophase.py",
    "tcio/file.py",
    "tcio/level2.py",
)

#: What a recorder or tracer is called where it is held.
RECORDER_NAMES = {"trace", "_trace", "tracer", "_tracer", "hub", "_hub"}


def calls(path: Path, name: str) -> list[str]:
    """Every call of ``name(...)`` or ``x.name(...)`` in *path*, as 'file:line'."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                hits.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return hits


def imported_modules(path: Path) -> list[str]:
    """Every module *path* imports (``from x import y`` counts as ``x``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return names


def _name_of(node: ast.AST):
    """The identifier a name or attribute node ends in, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def none_tests(path: Path) -> list[str]:
    """Every ``x is None`` / ``x is not None`` on a recorder name in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Is, ast.IsNot)):
                continue
            for side, other in ((left, right), (right, left)):
                if (
                    _name_of(side) in RECORDER_NAMES
                    and isinstance(other, ast.Constant) and other.value is None
                ):
                    hits.append(node.lineno)
    return [f"{path.relative_to(SRC)}:{line}" for line in sorted(hits)]


def mentions(path: Path, name: str) -> list[str]:
    """Every use of identifier *name* in *path* — a name, an attribute or
    an imported name — as 'file:line'."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found = any(name in (a.name.rsplit(".", 1)[-1], a.asname) for a in node.names)
        else:
            found = _name_of(node) == name
        if found:
            hits.append(node.lineno)
    return [f"{path.relative_to(SRC)}:{line}" for line in sorted(hits)]


def sites(name: str) -> list[str]:
    return [hit for path in sorted(SRC.rglob("*.py")) for hit in calls(path, name)]


def test_one_engine_construction():
    found = sites("Engine")
    assert len(found) == 1 and found[0].startswith("simmpi/mpi.py:"), found


def test_one_spawn_site():
    found = sites("spawn")
    assert len(found) == 1 and found[0].startswith("simmpi/mpi.py:"), found


def test_simmpi_does_not_import_tenancy():
    hits = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted((SRC / "simmpi").rglob("*.py"))
        for module in imported_modules(path)
        if module == "repro.tenancy" or module.startswith("repro.tenancy.")
    ]
    assert hits == []


def test_no_recorder_is_tested_for_none():
    found = [hit for layer in RECORDED_LAYERS for hit in none_tests(SRC / layer)]
    assert found == []


def test_no_null_tracer():
    found = [hit for path in sorted(SRC.rglob("*.py")) for hit in mentions(path, "NULL_TRACER")]
    assert found == []


def test_only_the_kernel_asks_which_process_runs():
    found = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "sim"
        for hit in mentions(path, "active_process_or_none")
    ]
    assert found == []


def test_the_checker_sees_both_call_shapes(tmp_path: Path, monkeypatch):
    monkeypatch.setattr(f"{__name__}.SRC", tmp_path)
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.sim.engine import Engine\n"
        "import repro.sim.engine as e\n"
        "a = Engine()\nb = e.Engine(trace=None)\nb.spawn('r', f)\n"
        "# Engine() in a comment\n'''and Engine() in a string'''\n"
    )
    assert calls(bad, "Engine") == ["bad.py:3", "bad.py:4"]
    assert calls(bad, "spawn") == ["bad.py:5"]


def test_the_recorder_checker_sees_every_shape(tmp_path: Path, monkeypatch):
    monkeypatch.setattr(f"{__name__}.SRC", tmp_path)
    bad = tmp_path / "bad.py"
    bad.write_text(
        "if trace is None:\n    pass\n"
        "t = self._tracer if self._tracer is not None else x\n"
        "ok = None is not world.trace\n"
        "fine = trace is other or self.faults is None or trace == None\n"
        "from repro.obs.spans import NULL_TRACER\n"
        "from repro.sim.engine import active_process_or_none as p\n"
        "y = spans.NULL_TRACER\n"
        "# trace is None in a comment\n'''and NULL_TRACER in a string'''\n"
    )
    assert none_tests(bad) == ["bad.py:1", "bad.py:3", "bad.py:4"]
    assert mentions(bad, "NULL_TRACER") == ["bad.py:6", "bad.py:8"]
    assert mentions(bad, "active_process_or_none") == ["bad.py:7"]
