"""The multi-job scenario runner: N applications, one PFS, one clock.

:func:`run_scenario` launches every job of a
:class:`~repro.tenancy.spec.TenancyScenario` onto one
:class:`~repro.simmpi.mpi.Launcher` machine — one engine, one fabric
core, one parallel file system — each as its own
:class:`~repro.simmpi.mpi.MpiWorld` on disjoint nodes. Jobs contend for
the fabric core, client storage links, OST service queues and the lock
manager — but each sees a private namespace
(:class:`~repro.tenancy.pfsview.TenantPfs`) and records into its own
:class:`~repro.sim.trace.TraceRecorder`, which the launcher hands to the
job's world, fabric and file-system view when it builds them. A one-job
scenario is a :func:`~repro.simmpi.mpi.run_mpi` run.

The load-bearing invariant, inherited from the repo's byte-identity
oracle: contention moves *virtual time*, never *data*. A job's durable
output under contention is byte-identical to its solo run; only
completion times shift. :func:`run_scenario` verifies this against each
workload's oracle, and the interference matrix
(:mod:`repro.tenancy.matrix`) verifies it against actual solo runs.

Fairness metrics follow the multi-tenant storage literature: per-job
slowdown is ``shared_elapsed / solo_elapsed`` and the scenario's Jain
fairness index is computed over per-job *progress rates*
``x_j = solo_j / shared_j`` (1.0 = perfectly even slowdown, lower =
somebody is starving).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.cluster.spec import ClusterSpec
from repro.faults.plan import FaultPlan
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.simmpi.mpi import Launcher, MpiWorld
from repro.tenancy.pfsview import TenantPfs
from repro.tenancy.spec import JobSpec, TenancyScenario
from repro.tenancy.workloads import build_workload
from repro.util.errors import TenancyError, tag_job

#: Solo-baseline memo: ``(spec.signature(), seed, cores_per_node) ->
#: JobResult``. Scenario runs with ``solo_baseline=True`` consult this so
#: an interference matrix reruns each solo job once, not once per cell.
_SOLO_CACHE: dict = {}


def clear_solo_cache() -> None:
    """Drop memoized solo baselines (tests use this for isolation)."""
    _SOLO_CACHE.clear()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class JobResult:
    """One job's outcome inside a (possibly shared) scenario run."""

    spec: JobSpec
    #: Effective (jittered) arrival time of the job.
    arrival: float
    #: Virtual time the last rank finished (== arrival for fully aborted
    #: jobs that never completed a rank).
    finish: float
    #: ``finish - arrival``; the job's makespan under this scenario.
    elapsed: float
    returns: list[Any]
    #: The job's private metric/trace recorder.
    recorder: TraceRecorder
    world: MpiWorld
    #: Durable output: tenant-relative file name -> bytes (journals and
    #: commit markers included — they are deterministic too).
    files: dict[str, bytes]
    #: The exception that aborted this job, or ``None`` for a clean run.
    aborted: Optional[BaseException] = None
    #: Solo-run makespan of the same spec (when a baseline was computed).
    solo_elapsed: Optional[float] = None

    @property
    def slowdown(self) -> Optional[float]:
        """``shared_elapsed / solo_elapsed`` (>= 1.0 means interference
        cost); ``None`` without a baseline or for aborted jobs."""
        if self.aborted is not None or not self.solo_elapsed:
            return None
        return self.elapsed / self.solo_elapsed

    @property
    def file_hashes(self) -> dict[str, str]:
        """sha256 of every durable file, keyed by tenant-relative name."""
        return {name: _sha256(data) for name, data in sorted(self.files.items())}


@dataclass
class ScenarioResult:
    """Outcome of one multi-job run."""

    scenario: TenancyScenario
    qos: str
    #: Final virtual clock (scenario makespan).
    elapsed: float
    jobs: dict[str, JobResult]
    #: The machine's recorder: the engine's event count and run span only;
    #: everything a job does lands in that job's ``recorder``.
    shared: TraceRecorder
    pfs: Any
    engine: Engine

    @property
    def jain_index(self) -> Optional[float]:
        """Jain's fairness index over per-job progress rates.

        ``(sum x)^2 / (n * sum x^2)`` with ``x_j = solo_j / shared_j``;
        1.0 when every job suffers the same relative slowdown. ``None``
        unless every (non-aborted) job has a solo baseline.
        """
        xs = [
            job.solo_elapsed / job.elapsed
            for job in self.jobs.values()
            if job.aborted is None and job.solo_elapsed and job.elapsed > 0
        ]
        if len(xs) != len(self.jobs):
            return None
        num = sum(xs) ** 2
        den = len(xs) * sum(x * x for x in xs)
        return num / den if den else None

    def ost_report(self) -> list[dict]:
        """Per-OST contention: service busy-time plus per-tenant bytes."""
        out = []
        for index, ost in enumerate(self.pfs.osts):
            tenants = {
                job: {"read": per[0], "written": per[1]}
                for job, per in sorted(ost.tenant_bytes.items())
                if per[0] or per[1]
            }
            out.append(
                {
                    "ost": index,
                    "busy_time": ost.busy_time,
                    "bytes_read": ost.bytes_read,
                    "bytes_written": ost.bytes_written,
                    "tenants": tenants,
                }
            )
        return out

    def lock_report(self) -> dict[str, dict[str, dict]]:
        """Lock-manager hotspots per job: grants served from the owner
        cache vs. queue waits, for each of the job's files."""
        out: dict[str, dict[str, dict]] = {}
        for name, job in self.jobs.items():
            view = TenantPfs(self.pfs, name)
            per_file = {}
            for fname in view.list_files():
                locks = view.lookup(fname).locks
                per_file[fname] = {
                    "cache_hits": locks.cache_hits,
                    "waits": locks.waits,
                }
            out[name] = per_file
        return out

    def metrics_json(self) -> dict:
        """Deterministic JSON-ready report (same seed -> same bytes).

        Contains only virtual-time and content-derived quantities — no
        wall clock, no host identifiers — so CI can diff it across runs.
        """
        from repro.obs.export import metrics_json as registry_json

        jobs = {}
        for name, job in sorted(self.jobs.items()):
            jobs[name] = {
                "workload": job.spec.workload,
                "nranks": job.spec.nranks,
                "priority": job.spec.priority,
                "arrival": job.arrival,
                "finish": job.finish,
                "elapsed": job.elapsed,
                "solo_elapsed": job.solo_elapsed,
                "slowdown": job.slowdown,
                "aborted": job.aborted is not None,
                "files": job.file_hashes,
                "metrics": registry_json(job.recorder.registry),
            }
        return {
            "schema": "repro.tenancy/1",
            "seed": self.scenario.seed,
            "qos": self.qos,
            "elapsed": self.elapsed,
            "jobs": jobs,
            "fairness": {
                "jain_index": self.jain_index,
                "slowdowns": {
                    name: job.slowdown for name, job in sorted(self.jobs.items())
                },
            },
            "pfs": {"qos": self.pfs.qos_policy, "osts": self.ost_report()},
            "locks": self.lock_report(),
        }


def scenario_cluster(scenario: TenancyScenario) -> ClusterSpec:
    """The combined machine hosting every job on disjoint nodes."""
    from dataclasses import replace

    from repro.experiments.topo_ablation import ablation_cluster

    cpn = scenario.cores_per_node
    total_ranks = sum(j.nranks for j in scenario.jobs)
    total_nodes = sum(-(-j.nranks // cpn) for j in scenario.jobs)
    return replace(ablation_cluster(total_ranks, cpn), nodes=total_nodes)


def run_scenario(
    scenario: TenancyScenario,
    *,
    qos: str = "fifo",
    faults: Optional[dict] = None,
    solo_baseline: bool = True,
) -> ScenarioResult:
    """Run every job of *scenario* concurrently against one shared PFS.

    ``qos`` selects the OST token-issue policy (``"fifo"`` — strict
    arrival order, bit-identical to the pre-tenancy simulator — or
    ``"fair"`` — weighted fair-share virtual token lines, weights taken
    from each job's ``priority``). ``faults`` optionally maps job name ->
    :class:`repro.faults.plan.FaultSpec`; injected faults (crashes
    included) stay confined to that job. With ``solo_baseline`` each
    job's spec is also run alone (memoized) to price its interference.
    Every clean job's durable bytes are checked against its workload's
    oracle.
    """
    workloads = {spec.name: build_workload(spec) for spec in scenario.jobs}
    faults = faults or {}
    machine = Launcher(scenario_cluster(scenario))
    pfs = machine.pfs
    pfs.set_qos(qos)
    for spec in scenario.jobs:
        name = spec.name
        pfs.register_tenant(name, weight=spec.priority)
        trace = TraceRecorder()
        machine.add(
            spec.nranks,
            workloads[name].main,
            job=name,
            arrival=scenario.effective_arrival(spec),
            faults=(
                FaultPlan(faults[name], scenario.seed, scope=f"tenancy:{name}")
                if name in faults else None
            ),
            trace=trace,
            pfs=TenantPfs(pfs, name, trace),
        )
    elapsed = machine.run()

    results: dict[str, JobResult] = {}
    for spec, world in zip(scenario.jobs, machine.worlds):
        name = spec.name
        arrival = scenario.effective_arrival(spec)
        done = [t for t in world.finish if t is not None]
        finish = max(done) if done else arrival
        files = {fname: world.pfs.lookup(fname).contents() for fname in world.pfs.list_files()}
        job = results[name] = JobResult(
            spec=spec,
            arrival=arrival,
            finish=finish,
            elapsed=finish - arrival,
            returns=world.returns,
            recorder=world.trace,
            world=world,
            files=files,
            aborted=world.aborted,
        )
        if job.aborted is not None:
            continue
        for fname, want in workloads[name].expected.items():
            got = files.get(fname)
            if got != want:
                raise tag_job(
                    TenancyError(
                        f"job {name}: contention changed the bytes of "
                        f"{fname!r} (got {len(got) if got is not None else 'no'}"
                        f" bytes, want {len(want)})"
                    ),
                    name,
                )

    if solo_baseline and len(scenario.jobs) > 1:
        for name, job in results.items():
            job.solo_elapsed = solo_result(scenario, name).elapsed

    return ScenarioResult(
        scenario=scenario,
        qos=qos,
        elapsed=elapsed,
        jobs=results,
        shared=machine.trace,
        pfs=pfs,
        engine=machine.engine,
    )


def solo_result(scenario: TenancyScenario, name: str) -> JobResult:
    """*name*'s job run alone on its own nodes (memoized).

    The baseline always uses the ``"fifo"`` policy — with a single tenant
    the fair-share token lines degenerate to FIFO anyway, and baselines
    must not depend on the policy under test.
    """
    spec = scenario.job(name)
    key = (spec.signature(), scenario.seed, scenario.cores_per_node)
    cached = _SOLO_CACHE.get(key)
    if cached is not None:
        return cached
    solo = run_scenario(scenario.solo(name), qos="fifo", solo_baseline=False)
    result = solo.jobs[name]
    _SOLO_CACHE[key] = result
    return result
