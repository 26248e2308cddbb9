"""Execution census of ``src/repro``: which functions does any run enter?

``python tools/census.py`` runs tier-1, the CI smoke commands, the seven
``BENCHMARK.json`` workloads (tiny, untraced), the examples, the ablation
benchmarks and the harness's own tests under a ``sys.setprofile`` hook, then
prints every function entered by nothing (A), only by unit tests (B), only by
CLI tests (C) or only by executed doc snippets (D). It exits 1 when group A or
B holds a function that ``tools/census_keep.txt`` does not list (one
``path:qualname  # reason`` per line; ``fnmatch`` patterns allowed), and when
a keep pattern is stale: every function it matches is gone or now entered by
some run other than the unit tests. Needs Python >= 3.11 (``code.co_qualname``).

The hook reaches child processes through a generated ``sitecustomize`` on
``PYTHONPATH``; the pytest plugin half of this file re-installs it per test,
because ``cProfile`` users clear ``sys.setprofile``.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src" / "repro") + os.sep
KEEP = ROOT / "tools" / "census_keep.txt"
_seen_by_tag: dict[str, dict] = {}
_seen: dict = {}  # id(code) -> code (held, so an id is never reused), for the current tag


def _hook(frame, event, arg):
    code = frame.f_code
    if event != "call" or id(code) in _seen:
        return
    _seen[id(code)] = code
    if code.co_filename.startswith(SRC):
        # one append per first entry: pool children never run atexit
        out = Path(os.environ["CENSUS_DIR"], f"{os.environ['CENSUS_TAG']}.{os.getpid()}")
        with out.open("a") as fh:
            fh.write(f"{code.co_filename[len(SRC):]}:{code.co_qualname}\n")


def install() -> None:
    global _seen
    if "CENSUS_DIR" in os.environ:
        _seen = _seen_by_tag.setdefault(os.environ["CENSUS_TAG"], {})
        threading.setprofile(_hook)
        sys.setprofile(_hook)


def pytest_runtest_setup(item) -> None:
    """Tag each tier-1 test by what it stands for, and re-arm the hook."""
    path = item.path.relative_to(ROOT).as_posix()
    if not path.startswith("tests/"):
        tag = "run"
    elif "test_cli" in path:
        tag = "cli"
    elif path.endswith("test_docs_snippets.py"):
        tag = "docs"
    else:
        tag = "unit"
    os.environ["CENSUS_TAG"] = tag
    install()


def functions() -> dict[str, int]:
    """``relative/file.py:qualname`` -> body lines, for every def under src/repro."""
    found: dict[str, int] = {}

    def walk(node, prefix, rel):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name != "__repr__":  # debugging aid, never asserted on
                    found[f"{rel}:{prefix}{child.name}"] = child.end_lineno - child.lineno + 1
                walk(child, f"{prefix}{child.name}.<locals>.", rel)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", rel)
            else:
                walk(child, prefix, rel)

    for path in sorted(Path(SRC).rglob("*.py")):
        walk(ast.parse(path.read_text()), "", str(path)[len(SRC):])
    return found


def ci_files() -> dict[str, str]:
    """Files the ``ci.yml`` steps write with a heredoc (``cat > NAME <<'EOF'``),
    which its smoke lines then read: every scratch cwd needs them too."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    found = re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^\s*EOF$", ci, re.MULTILINE | re.DOTALL)
    return {name: textwrap.dedent(body) for name, body in found}


def commands() -> list[tuple[str, list[str]]]:
    """(tag, python argv) for every run the census observes."""
    runs = [("unit", ["-m", "pytest", "-q", "-p", "census", "-p", "no:cacheprovider", "tests",
                      "benchmarks/test_ablations.py", "benchmarks/e2e/tests",
                      "--benchmark-disable"])]
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text().replace("\\\n", " ")
    smoke = re.findall(r"^\s*(?:run: )?python -m repro (.+)$", ci, re.MULTILINE)
    smoke += ["info", "table3", "bench --procs 4 --len 64", "report --smoke",
              "fig5 --smoke", "fig67 --smoke", "fig910 --smoke"]
    runs += [("run", ["-m", "repro", *line.split()]) for line in smoke]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs += [("run", ["-m", "benchmarks.e2e", "run", "--workload", w["name"], "--tiny",
                      "--seconds", "1", "--trace", "0"]) for w in bench["workloads"]]
    runs += [("run", [str(p)]) for p in sorted((ROOT / "examples").glob("*.py"))]
    return runs


def main() -> int:
    patterns = {line.split("#")[0].strip() for line in KEEP.read_text().splitlines()} - {""}
    with tempfile.TemporaryDirectory() as tmp:
        hits, work = Path(tmp, "hits"), Path(tmp, "work")
        hits.mkdir()
        work.mkdir()
        for name, text in ci_files().items():
            (work / name).write_text(text)
        Path(tmp, "sitecustomize.py").write_text("import census\ncensus.install()\n")
        env = dict(os.environ, CENSUS_DIR=str(hits), PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
            [tmp, str(ROOT / "tools"), str(ROOT / "src")]))
        for tag, argv in commands():
            print("+ python", " ".join(argv), flush=True)
            # smoke commands and examples write files: give them a scratch cwd
            cwd = ROOT if {"pytest", "benchmarks.e2e"} & set(argv[:2]) else work
            done = subprocess.run([sys.executable, *argv], cwd=cwd, stdout=subprocess.DEVNULL,
                                  env=dict(env, CENSUS_TAG=tag))
            if done.returncode:
                print(f"census: exit {done.returncode} from python {' '.join(argv)}")
                return 2
        entered: dict[str, set[str]] = {}
        for out in hits.iterdir():
            for name in out.read_text().splitlines():
                entered.setdefault(name, set()).add(out.name.split(".")[0])
    every = functions()
    keep = {name for name in every if any(fnmatch.fnmatchcase(name, p) for p in patterns)}
    groups = {"A entered by nothing": lambda t: not t,
              "B entered only by unit tests": lambda t: t == {"unit"},
              "C entered only through CLI tests": lambda t: "cli" in t and not t & {"docs", "run"},
              "D entered only through doc snippets": lambda t: "docs" in t and "run" not in t}
    unmarked = []
    for title, member in groups.items():
        names = [n for n in every if member(entered.get(n, set()))]
        print(f"\n== {title}: {len(names)} of {len(every)} functions, "
              f"{sum(every[n] for n in names)} of {sum(every.values())} lines")
        for name in names:
            print(f"  {'keep' if name in keep else '    '} {name}  ({every[name]})")
        if title[0] in "AB":
            unmarked += [n for n in names if n not in keep]
    if unmarked:
        print("\ngroups A and B hold functions census_keep.txt does not list:",
              *unmarked, sep="\n  ")
    needed = [n for n in every if entered.get(n, set()) <= {"unit"}]  # groups A and B
    stale = sorted(p for p in patterns if not fnmatch.filter(needed, p))
    if stale:
        print("\ncensus_keep.txt lists patterns that match no function of A or B:",
              *stale, sep="\n  ")
    return 1 if unmarked or stale else 0


if __name__ == "__main__":
    sys.exit(main())
