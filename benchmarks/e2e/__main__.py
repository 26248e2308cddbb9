"""``python3 -m benchmarks.e2e {run,setup,compare,selfcheck}``."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _bootstrap() -> None:
    """Make ``repro`` importable and pin the hash seed, before any import
    of the program. The benchmark is not installed anywhere: it measures
    the ``src/`` tree it sits beside, and refuses to run without one."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"benchmarks.e2e: no src/repro under {ROOT}; nothing to measure")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "benchmarks.e2e", *sys.argv[1:]])
    sys.path.insert(0, str(src))


def _parser(workloads: list[str], run_seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one workload, one fresh process")
    run.add_argument("--workload", required=True, choices=workloads)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=run_seconds,
                     help="how long to time iterations (--trace 0 only)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: profile one iteration and print the per-layer "
                          "metrics; no end-to-end number comes from such a run")
    run.add_argument("--tiny", action="store_true",
                     help="seconds-cheap sizing, for the harness's own tests")
    run.add_argument("--out", help="result-set file to append this run to")

    setup = sub.add_parser("setup", help="set up and exit (timed by 'run')")
    setup.add_argument("--workload", required=True, choices=workloads)
    setup.add_argument("--seed", type=int, default=0)
    setup.add_argument("--tiny", action="store_true")

    compare = sub.add_parser("compare", help="judge result set B against A")
    compare.add_argument("a")
    compare.add_argument("b")

    selfcheck = sub.add_parser(
        "selfcheck", help="run every workload twice and compare the two sets")
    selfcheck.add_argument("--seed", type=int, default=0)
    selfcheck.add_argument("--seconds", type=float, default=run_seconds)
    selfcheck.add_argument("--tiny", action="store_true")
    return parser


def _selfcheck(args, workloads: list[str]) -> int:
    from benchmarks.e2e.compare import load, report
    from benchmarks.e2e.harness import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    paths = [OUT_DIR / "selfcheck.A.json", OUT_DIR / "selfcheck.B.json"]
    for path in paths:
        path.unlink(missing_ok=True)
        for workload in workloads:
            for trace in (0, 1):
                command = [
                    sys.executable, "-m", "benchmarks.e2e", "run",
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(path),
                ] + (["--tiny"] if args.tiny else [])
                print("+", " ".join(command[1:]), flush=True)
                subprocess.run(command, cwd=ROOT, check=True,
                               stdout=subprocess.DEVNULL)
    text, passed = report(load(paths[0]), load(paths[1]), same_commit=True)
    print(text)
    return 0 if passed else 1


def main() -> int:
    _bootstrap()
    from benchmarks.e2e.metrics import RUN_SECONDS
    from benchmarks.e2e.workloads import BY_NAME

    workloads = list(BY_NAME)
    args = _parser(workloads, RUN_SECONDS).parse_args()
    if args.command == "compare":
        from benchmarks.e2e.compare import load, report

        text, passed = report(load(args.a), load(args.b))
        print(text)
        return 0 if passed else 1
    if args.command == "selfcheck":
        return _selfcheck(args, workloads)

    from benchmarks.e2e import harness

    workload = BY_NAME[args.workload]
    if args.command == "setup":
        harness.set_up(workload, args.seed, tiny=args.tiny)
        return 0
    if args.trace:
        document = harness.run_traced(workload, args.seed, tiny=args.tiny)
    else:
        document = harness.run_end_to_end(
            workload, args.seed, args.seconds, tiny=args.tiny
        )
    if args.out:
        harness.append_result(args.out, document)
    print(harness.render(document))
    print(harness.last_line(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
