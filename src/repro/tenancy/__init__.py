"""Multi-job tenancy: concurrent applications sharing one simulated PFS.

Public surface:

* :class:`~repro.tenancy.spec.JobSpec` /
  :class:`~repro.tenancy.spec.TenancyScenario` — declarative scenarios
  (workload kind, rank count, arrival, priority, seeded jitter);
* :func:`~repro.tenancy.runner.run_scenario` — launch all jobs onto one
  :class:`~repro.simmpi.mpi.Launcher` machine (one engine, fabric core
  and PFS), each job recording into its own recorder, under QoS policies;
* :func:`~repro.tenancy.matrix.interference_matrix` — the A-alone /
  B-alone / A+B harness enforcing the byte-identity oracle;
* :class:`~repro.tenancy.pfsview.TenantPfs` — one job's view of the
  shared file system (its namespace and its recorder), reusable by other
  multi-application harnesses.
"""

from repro.tenancy.matrix import MatrixReport, interference_matrix
from repro.tenancy.pfsview import TenantPfs
from repro.tenancy.runner import (
    JobResult,
    ScenarioResult,
    clear_solo_cache,
    run_scenario,
    scenario_cluster,
    solo_result,
)
from repro.tenancy.spec import (
    JobSpec,
    TenancyScenario,
    parse_job,
    parse_scenario,
    two_job_scenario,
)
from repro.tenancy.workloads import Workload, bench_config, build_workload

__all__ = [
    "JobResult",
    "JobSpec",
    "MatrixReport",
    "ScenarioResult",
    "TenancyScenario",
    "TenantPfs",
    "Workload",
    "bench_config",
    "build_workload",
    "clear_solo_cache",
    "interference_matrix",
    "parse_job",
    "parse_scenario",
    "run_scenario",
    "scenario_cluster",
    "solo_result",
    "two_job_scenario",
]
