"""Revision differential: does this checkout still print what a base did?

``python tools/diffcheck.py <rev-or-worktree>`` runs every ``python -m repro``
command the census knows (the smoke lines of ``ci.yml`` plus its extras) twice
under ``PYTHONHASHSEED=0`` — against the base revision's ``src/`` and against
this checkout's — each side in a scratch directory of its own, and compares
stdout and every file written through ``--out`` / ``--metrics-out`` byte for
byte. Prints the first divergence of each differing command; exits 1 on any.
``<rev-or-worktree>`` is a directory holding the base tree (CI's ``../base``)
or a revision, which is checked out into a temporary ``git worktree``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from census import ROOT, ci_files, commands  # noqa: E402

OUT_FLAGS = ("--out", "--metrics-out")


def run(tree: Path, argv: list[str], cwd: Path) -> dict[str, bytes]:
    """One command against *tree*: ``{"stdout" | relative file: bytes}``."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    got = {"stdout": done.stdout, "exit": str(done.returncode).encode()}
    for flag, value in zip(argv, argv[1:]):
        target = cwd / value
        if flag in OUT_FLAGS and target.exists():
            files = sorted(target.rglob("*")) if target.is_dir() else [target]
            got.update({str(f.relative_to(cwd)): f.read_bytes() for f in files if f.is_file()})
    return got


def first_divergence(a: bytes, b: bytes) -> str:
    at = len(os.path.commonprefix([a, b]))
    line = a.count(b"\n", 0, at) + 1
    lo = a.rfind(b"\n", 0, at) + 1

    def shown(raw: bytes) -> str:
        end = raw.find(b"\n", at)
        return repr(raw[lo:end if end >= 0 else len(raw)][:160].decode(errors="replace"))

    return (f"byte {at} of {len(a)} (base) / {len(b)} (head), line {line}:\n"
            f"      base {shown(a)}\n      head {shown(b)}")


def main(base: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree, worktree = Path(base).resolve(), None
        if not tree.is_dir():
            tree = worktree = Path(tmp, "base")
            subprocess.run(["git", "worktree", "add", "--detach", str(tree), base],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        cwds = [Path(tmp, side) for side in ("A", "B")]
        for cwd in cwds:
            cwd.mkdir()
            for name, text in ci_files().items():
                (cwd / name).write_text(text)
        differing = 0
        try:
            for _tag, argv in commands():
                if argv[:2] != ["-m", "repro"]:
                    continue
                base_out, head_out = (run(t, argv, c) for t, c in zip((tree, ROOT), cwds))
                bad = [k for k in sorted(base_out.keys() | head_out.keys())
                       if base_out.get(k) != head_out.get(k)]
                print(f"{'DIFF ' if bad else 'same '} python {' '.join(argv)}", flush=True)
                for key in bad:
                    print(f"    {key}: "
                          + first_divergence(base_out.get(key, b""), head_out.get(key, b"")))
                differing += bool(bad)
        finally:
            if worktree is not None:
                subprocess.run(["git", "worktree", "remove", "--force", str(worktree)], cwd=ROOT)
    print(f"diffcheck: {differing} command(s) differ from {base}")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
