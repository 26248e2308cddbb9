"""One run of one workload: set-up, warm-up, timed iterations, checks.

A run is one fresh process. ``--trace 0`` gives the end-to-end numbers with
no profiler and no interposition anywhere; ``--trace 1`` gives the per-layer
numbers from one iteration under ``cProfile``, and never a timing anyone
should read as end-to-end (``trace.overhead_ratio`` says how far off it is).
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.perf.hostbench import calibrate
from repro.sim.engine import events_executed_total

from benchmarks.e2e import layers
from benchmarks.e2e.metrics import (
    BOUNDARIES,
    END_TO_END,
    HOST_LAYERS,
    LAYERS,
    OBS_INCREMENTS,
    PER_LAYER,
)
from benchmarks.e2e.tracing import Spans, capture, simulated_counts
from benchmarks.e2e.workloads import Outcome, Prepared, Workload, prepare

SCHEMA = "benchmarks.e2e/1"
ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Fresh processes timed for ``setup_s`` in every run.
SETUP_SAMPLES = 3
#: Fewest timed iterations, however short ``--seconds`` is.
MIN_ITERATIONS = 3


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    events: int
    outcome: Optional[Outcome]  # None when the driver raised

    @property
    def fingerprint(self):
        """What must repeat bit for bit across the iterations of a run."""
        o = self.outcome
        if o is None:
            return None
        return (o.sha256, o.sim_total_s, o.sim_write_s, o.sim_read_s, self.events)


def iterate(prepared: Prepared, profile: Optional[cProfile.Profile] = None) -> Iteration:
    """Run the workload once on a fresh engine, PFS and fabric."""
    gc.collect()
    events0 = events_executed_total()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if profile is not None:
        profile.enable()
    try:
        outcome = prepared.run()
        if profile is None:
            # Only the traced iteration reads the driver's own result; kept
            # on every iteration it would hold each simulated world alive
            # and make peak RSS grow with the iteration count.
            outcome = replace(outcome, raw=None)
    except Exception:  # the run must go on to report the failure
        traceback.print_exc()
        outcome = None
    finally:
        if profile is not None:
            profile.disable()
    return Iteration(
        wall_s=time.perf_counter() - wall0,
        cpu_s=time.process_time() - cpu0,
        events=events_executed_total() - events0,
        outcome=outcome,
    )


def failed_calls(prepared: Prepared, it: Iteration, reference) -> int:
    """Application calls of *it* that count as failed: all of them when the
    iteration is wrong in any way, else what the program itself reports."""
    name = prepared.workload.name
    o = it.outcome
    problems = []
    if o is None:
        problems.append("the driver raised")
    else:
        if o.sha256 != prepared.expected_sha256:
            problems.append(
                f"output sha256 {o.sha256} != oracle {prepared.expected_sha256}"
            )
        if not o.sim_total_s > 0:
            problems.append(f"sim_total_s is {o.sim_total_s}")
        if it.fingerprint != reference:
            problems.append(
                f"(sha256, sim seconds, events) {it.fingerprint} "
                f"differ from the warm-up's {reference}"
            )
    for problem in problems:
        print(f"{name}: FAILED: {problem}", file=sys.stderr)
    if problems:
        return prepared.app_calls
    if o.failed_calls:
        print(f"{name}: the program reported {o.failed_calls} failed calls",
              file=sys.stderr)
    return o.failed_calls


# ----------------------------------------------------------------------
# set-up, in fresh processes
# ----------------------------------------------------------------------


def set_up(workload: Workload, seed: int, *, tiny: bool = False) -> Prepared:
    """What a process does before it can run *workload* at full speed:
    generate the inputs, evaluate the oracle, and run the tiny sizing once
    so that lazy imports and first-call initialisation are behind it."""
    prepared = prepare(workload, seed, tiny=tiny)
    prepare(workload, seed, tiny=True).run()
    return prepared


def measure_setup(workload: Workload, seed: int, *, tiny: bool, samples: int) -> list[float]:
    """Wall-clock of ``python -m benchmarks.e2e setup`` in fresh processes:
    interpreter start, imports, and :func:`set_up`."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "setup",
        "--workload", workload.name, "--seed", str(seed),
    ] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


# ----------------------------------------------------------------------
# noise hygiene: context recorded beside the numbers, never as metrics
# ----------------------------------------------------------------------


def _commit_hash() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:  # not a git checkout, or packed refs
        return None


def noise_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "calibrate_s": calibrate(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "commit": _commit_hash(),
    }


def _close_context(context: dict) -> dict:
    context["loadavg_1m_end"] = os.getloadavg()[0]
    busiest = max(context["loadavg_1m_start"], context["loadavg_1m_end"])
    if busiest > context["nproc"]:
        print(
            f"warning: load average {busiest:.2f} exceeds {context['nproc']} "
            f"cores; host times of this run are suspect", file=sys.stderr,
        )
    return context


def _summary(samples: list[float]) -> dict:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def _document(prepared: Prepared, trace: int, tiny: bool, iterations: int,
              failed: int, values: dict[str, float], declared, **extra) -> dict:
    missing = {m.name for m in declared} - set(values)
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {sorted(missing)}")
    return {
        "schema": SCHEMA,
        "workload": prepared.workload.name,
        "seed": prepared.seed,
        "trace": trace,
        "tiny": tiny,
        "correct": failed == 0,
        "attempted": prepared.app_calls * iterations,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in declared
        },
        **extra,
    }


# ----------------------------------------------------------------------
# --trace 0: the end-to-end numbers
# ----------------------------------------------------------------------


def run_end_to_end(workload: Workload, seed: int, seconds: float, *,
                   tiny: bool = False, setup_samples: int = SETUP_SAMPLES) -> dict:
    context = noise_context()
    setup = measure_setup(workload, seed, tiny=tiny, samples=setup_samples)
    prepared = set_up(workload, seed, tiny=tiny)

    warm = iterate(prepared)
    reference = warm.fingerprint
    failed = failed_calls(prepared, warm, reference)

    timed: list[Iteration] = []
    started = time.perf_counter()
    while True:
        it = iterate(prepared)
        failed += failed_calls(prepared, it, reference)
        timed.append(it)
        spent = time.perf_counter() - started
        typical = statistics.median(i.wall_s for i in timed)
        if len(timed) >= MIN_ITERATIONS and spent + typical > seconds:
            break

    stats = {
        "host_s": _summary([i.wall_s for i in timed]),
        "host_cpu_s": _summary([i.cpu_s for i in timed]),
        "app_calls_per_host_s": _summary(
            [prepared.app_calls / i.wall_s for i in timed]
        ),
        "setup_s": _summary(setup),
    }
    values = {name: s["median"] for name, s in stats.items()}
    values["sim_total_s"] = warm.outcome.sim_total_s if warm.outcome else 0.0
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return _document(
        prepared, 0, tiny, 1 + len(timed), failed, values, END_TO_END,
        stats=stats,
        fingerprint=reference,
        warmup_host_s=warm.wall_s,
        context=_close_context(context),
    )


# ----------------------------------------------------------------------
# --trace 1: the per-layer numbers of one profiled iteration
# ----------------------------------------------------------------------


def run_traced(workload: Workload, seed: int, *, tiny: bool = False,
               out_dir: Path = OUT_DIR) -> dict:
    context = noise_context()
    spans = Spans(run_id=f"{workload.name}-seed{seed}")
    profile = cProfile.Profile()
    values: dict[str, float] = {}
    with spans.span("run"):
        with spans.span("setup"):
            prepared = set_up(workload, seed, tiny=tiny)
        with spans.span("warm-up"):
            warm = iterate(prepared)
        with spans.span("iteration"):
            plain = iterate(prepared)
        with spans.span("iteration.traced"), capture(spans) as captured:
            traced = iterate(prepared, profile)
        with spans.span("verify"):
            reference = warm.fingerprint
            failed = sum(
                failed_calls(prepared, it, reference)
                for it in (warm, plain, traced)
            )
        for name in ("write", "read"):
            phase = prepared.phases.get(name)
            values[f"phase.{name}.host_s"] = 0.0
            if phase is not None:
                with spans.span(f"phase.{name}"):
                    gc.collect()
                    t0 = time.perf_counter()
                    phase()
                    values[f"phase.{name}.host_s"] = time.perf_counter() - t0
    if traced.outcome is None:
        raise RuntimeError(f"{workload.name}: the traced iteration raised")

    table = pstats.Stats(profile).stats
    attribution = layers.attribute(table)
    self_s = layers.rolled_up(attribution.self_s)
    calls = layers.rolled_up(attribution.calls)
    for layer in HOST_LAYERS:
        values[f"host_self_s.{layer}"] = self_s.get(layer, 0.0)
        values[f"host_calls.{layer}"] = calls.get(layer, 0)
    for boundary, targets in BOUNDARIES.items():
        values[f"{boundary}.incl_s"] = layers.inclusive_s(table, targets)
    values["obs.inc.calls"] = layers.primitive_calls(table, OBS_INCREMENTS)
    values["sim.events"] = traced.events
    values["sim.host_us_per_event"] = (
        plain.wall_s * 1e6 / plain.events if plain.events else 0.0
    )
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    values.update(simulated_counts(captured, traced.outcome))

    layer_sum = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    graph = {
        "layers": {
            layer: {"self_s": self_s.get(layer, 0.0), "calls": calls.get(layer, 0)}
            for layer in HOST_LAYERS
        },
        "edges": [
            {"from": a, "to": b, "calls": round(n), "incl_s": incl}
            for (a, b), (n, incl) in sorted(attribution.edges.items())
            if round(n)
        ],
        "traced_host_s": traced.wall_s,
        "untraced_host_s": plain.wall_s,
        "layer_self_sum_over_traced_host_s": layer_sum / traced.wall_s,
    }
    document = _document(
        prepared, 1, tiny, 3, failed, values, PER_LAYER,
        graph=graph,
        fingerprint=reference,
        context=_close_context(context),
    )
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload.name}.trace.json", "w", encoding="utf-8") as fh:
        json.dump({**document, "spans": spans.spans}, fh, indent=1)
        fh.write("\n")
    return document


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def render(document: dict) -> str:
    """Every metric by name with its unit, for people."""
    stats = document.get("stats", {})
    lines = [
        f"{document['workload']} seed={document['seed']} "
        f"trace={document['trace']}: {document['attempted']} application calls "
        f"attempted, {document['failed']} failed"
    ]
    if stats:
        lines.append(
            "  timings are medians; n is too small for a tail percentile, "
            "so min and max are given"
        )
    for name, metric in document["metrics"].items():
        line = f"  {name:<28} {metric['value']:>16.9g} {metric['unit']}"
        s = stats.get(name)
        if s:
            line += f"   (n={s['n']}, min {s['min']:.6g}, max {s['max']:.6g})"
        lines.append(line)
    return "\n".join(lines)


def last_line(document: dict) -> str:
    """The one JSON object the driver reads."""
    return json.dumps(
        {key: document[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def append_result(path: str, document: dict) -> None:
    """Add *document* to the result set at *path* (created when absent)."""
    try:
        with open(path, encoding="utf-8") as fh:
            results = json.load(fh)
    except FileNotFoundError:
        results = {"schema": SCHEMA, "runs": []}
    results["runs"].append(document)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
