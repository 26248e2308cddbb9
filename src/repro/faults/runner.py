"""The fault-injection smoke runner: ``python -m repro faults <target>``.

Runs the synthetic benchmark with a seeded :class:`FaultPlan` armed —
message drops and latency spikes on the fabric, one slow OST plus
per-request stalls, bounded lock waits, transient RMA failures, and one
unreachable segment owner — then asserts the shared file still verifies
byte-for-byte with :func:`repro.bench.synthetic.check_file`
(run_benchmark raises on any mismatch). Prints the injection digest per
phase so a run doubles as a quick look at what the plan actually did.
"""

from __future__ import annotations

from collections import Counter

from repro.util.units import MIB, format_time


def run_faulted(
    target: str,
    *,
    seed: int = 1,
    rate: float = 0.05,
    procs: int = 16,
    len_array: int = 256,
    method: str = "tcio",
    aggregation: str = "flat",
) -> int:
    """Run one fault-injected benchmark point; 0 when it verified."""
    from repro.bench import BenchConfig, Method, run_benchmark
    from repro.faults import FaultSpec

    if target != "bench":
        method = target
    cfg = BenchConfig(
        method=Method.parse(method),
        len_array=len_array,
        nprocs=procs,
        aggregation=aggregation,
    )
    # Rank 1 owns global segment 1 under TCIO's g % P placement whenever
    # the file spans at least two segments, so making it unreachable
    # exercises the independent-write degradation path.
    spec = FaultSpec.from_rate(
        rate,
        slow_osts=1,
        lock_timeout=2e-3,
        unreachable_ranks=(1,) if procs > 1 else (),
        audit_locks=True,
    )
    result = run_benchmark(cfg, faults=spec, fault_seed=seed)
    if result.failed:
        print(f"FAILED: {result.fail_reason}")
        return 1

    print(
        f"faulted {cfg.method.name}: procs={procs} LEN={len_array} "
        f"seed={seed} rate={rate}"
    )
    total_injected = 0
    for phase, plan in sorted(result.fault_plans.items()):
        kinds = Counter(inj.kind for inj in plan.injections)
        digest = " ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "none"
        retries = result.counters.get(f"{phase}.faults.retries", (0, 0.0))[0]
        fallbacks = len(plan.fallbacks)
        total_injected += len(plan.injections)
        print(
            f"  {phase}: verified OK  injected={len(plan.injections)} "
            f"({digest})  retries={retries}  fallbacks={fallbacks}"
        )
    if result.write_throughput is not None:
        print(
            f"  write: {result.write_throughput / MIB:8.1f} MB/s "
            f"({format_time(result.write_seconds)})"
        )
    if result.read_throughput is not None:
        print(
            f"  read:  {result.read_throughput / MIB:8.1f} MB/s "
            f"({format_time(result.read_seconds)})"
        )
    if rate > 0 and total_injected == 0:
        print("WARNING: nonzero rate but no faults injected (run too small?)")
    return 0


def run_crash_campaign(crash_at: str, **matrix) -> int:
    """``python -m repro faults --crash-at <step|each-step> [--ft]`` and
    ``python -m repro ioserver --crash-step <step|each-step> [--failover]``.

    Runs one crash-differential matrix (docs/faults.md; *matrix* goes to
    :func:`repro.crash.run_matrix`): kill the victim at the named protocol
    step (or every step), then either recover and compare against the
    crash-free reference or, in survive mode, require completion; 0 when
    every cell is byte-identical and fsck-clean, 2 for a step or victim
    that does not exist (nothing is simulated then).
    """
    from repro.crash import run_matrix

    steps = None if crash_at == "each-step" else (crash_at,)
    try:
        result = run_matrix(steps=steps, **matrix)
    except ValueError as exc:
        print(exc)
        return 2
    print(result.render())
    return 0 if result.ok else 1


def run_fsck(
    file_name: str,
    *,
    seed: int = 1,
    rate: float = 0.05,
    procs: int = 16,
    len_array: int = 256,
    journal: str = "epoch",
    aggregation: str = "flat",
) -> int:
    """``python -m repro fsck <file>``: journaled faulted run + verify.

    Runs the TCIO write phase of the synthetic benchmark with the usual
    seeded fault soup armed and ``journal=<mode>``, keeps the simulated
    PFS image, and classifies every byte of *file* with
    :func:`repro.crash.fsck.fsck` (the in-memory segment directory rides
    along as the :class:`~repro.crash.fsck.CrashContext`, so degraded
    direct writes and volatile losses are accounted too). Exit 0 iff the
    image verifies against the reference and fsck reports it clean.
    """
    from repro.bench import BenchConfig, Method
    from repro.bench.synthetic import _tcio_write, check_file
    from repro.crash import CrashContext, fsck, recover
    from repro.faults import FaultPlan, FaultSpec
    from repro.simmpi import run_mpi

    cfg = BenchConfig(
        method=Method.TCIO,
        len_array=len_array,
        nprocs=procs,
        file_name=file_name,
        aggregation=aggregation,
        journal=journal,
    )
    spec = FaultSpec.from_rate(
        rate,
        slow_osts=1,
        unreachable_ranks=(1,) if procs > 1 else (),
        audit_locks=True,
    )
    plan = FaultPlan(spec, seed, scope="write")
    result = run_mpi(
        cfg.nprocs, lambda env: _tcio_write(env, cfg), faults=plan
    )
    if result.aborted is not None:
        print(f"FAILED: job aborted ({result.aborted})")
        return 1
    verified = check_file(cfg, result.pfs.lookup(file_name).data)

    if journal != "off":
        print(recover(result.pfs, file_name).summary())
    report = fsck(
        result.pfs, file_name, context=CrashContext.from_world(result.world, file_name)
    )
    print(report.summary())
    print(
        f"  verify vs reference: {'OK' if verified else 'MISMATCH'}  "
        f"(journal={journal}, seed={seed}, rate={rate}, "
        f"injected={len(plan.injections)})"
    )
    return 0 if verified and report.clean else 1
