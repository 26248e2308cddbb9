"""The interference matrix: A alone, B alone, A+B together.

The harness behind the tenancy acceptance bar. For each job of a
scenario it runs the job solo, then runs all jobs shared, and checks:

* **byte identity** — every durable file a job produced under contention
  (data, journals, commit markers) is byte-identical to its solo run;
  contention moved virtual time, never data;
* **fsck cleanliness** — each journaled job's primary file passes
  :func:`repro.crash.fsck.fsck` on the *shared* file system, attributed
  to the owning job;
* **interference prices** — per-job slowdown and the scenario's Jain
  fairness index, which is where QoS policies become visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tenancy.runner import (
    JobResult,
    ScenarioResult,
    run_scenario,
    solo_result,
)
from repro.tenancy.spec import TenancyScenario
from repro.tenancy.workloads import build_workload
from repro.util.errors import TenancyError, tag_job


@dataclass
class MatrixReport:
    """Solo-vs-shared comparison for every job of one scenario."""

    scenario: TenancyScenario
    qos: str
    shared: ScenarioResult
    solo: dict[str, JobResult]
    #: job -> did its shared-run bytes match its solo run exactly.
    identical: dict[str, bool]
    #: job -> fsck summary line of its primary data file (journaled jobs
    #: on the shared PFS only).
    fsck: dict[str, str]
    fsck_clean: dict[str, bool]

    @property
    def all_identical(self) -> bool:
        return all(self.identical.values())

    @property
    def all_clean(self) -> bool:
        return all(self.fsck_clean.values())

    def to_json(self) -> dict:
        """Deterministic JSON-ready summary (no wall clock, no paths)."""
        jobs = {}
        for name in sorted(self.solo):
            shared_job = self.shared.jobs[name]
            jobs[name] = {
                "solo_elapsed": self.solo[name].elapsed,
                "shared_elapsed": shared_job.elapsed,
                "slowdown": shared_job.slowdown,
                "identical": self.identical[name],
                "files": shared_job.file_hashes,
                "fsck": self.fsck.get(name),
                "fsck_clean": self.fsck_clean.get(name, True),
            }
        return {
            "schema": "repro.tenancy.matrix/1",
            "seed": self.scenario.seed,
            "qos": self.qos,
            "jobs": jobs,
            "jain_index": self.shared.jain_index,
            "scenario_elapsed": self.shared.elapsed,
        }


def interference_matrix(
    scenario: TenancyScenario,
    *,
    qos: str = "fifo",
    strict: bool = True,
) -> MatrixReport:
    """Run the full solo/shared matrix for *scenario*.

    With ``strict`` (the default) a byte-identity violation or a dirty
    fsck raises :class:`TenancyError` attributed to the offending job;
    otherwise the report simply records the failures.
    """
    shared = run_scenario(scenario, qos=qos, solo_baseline=True)
    solo = {spec.name: solo_result(scenario, spec.name) for spec in scenario.jobs}

    identical: dict[str, bool] = {}
    for name, solo_job in solo.items():
        same = solo_job.files == shared.jobs[name].files
        identical[name] = same
        if strict and not same:
            theirs = shared.jobs[name].files
            diff = sorted(
                fname
                for fname in set(solo_job.files) | set(theirs)
                if solo_job.files.get(fname) != theirs.get(fname)
            )
            raise tag_job(
                TenancyError(
                    f"job {name}: shared-run bytes differ from solo run "
                    f"in {diff} — contention must never change data"
                ),
                name,
            )

    fsck_lines: dict[str, str] = {}
    fsck_clean: dict[str, bool] = {}
    for spec in scenario.jobs:
        workload = build_workload(spec)
        if not (workload.journaled and workload.data_file):
            continue
        if shared.jobs[spec.name].aborted is not None:
            continue
        from repro.crash.fsck import fsck

        report = fsck(
            shared.pfs, f"{spec.name}/{workload.data_file}", job=spec.name
        )
        fsck_lines[spec.name] = report.summary()
        fsck_clean[spec.name] = report.clean
        if strict and not report.clean:
            raise tag_job(
                TenancyError(
                    f"job {spec.name}: shared-run fsck not clean: "
                    f"{report.summary()}"
                ),
                spec.name,
            )

    return MatrixReport(
        scenario=scenario,
        qos=qos,
        shared=shared,
        solo=solo,
        identical=identical,
        fsck=fsck_lines,
        fsck_clean=fsck_clean,
    )
