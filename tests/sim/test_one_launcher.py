"""There is one launcher: one ``Engine(`` site and one spawn loop.

Every simulated job — a figure point, a crash cell, a tenancy scenario —
comes to life through :class:`repro.simmpi.mpi.Launcher`; ``run_mpi`` is
its one-job case and the tenancy runner an ordinary caller. A second
engine construction or spawn loop under ``src/repro`` would be a second
launcher with its own placement and abort rules, so CI fails on the
*call site*. The kernel also must not reach up into the tenancy layer
built on it. AST-based: comments and docstrings do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"


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
