"""Multi-job scenario descriptions.

A :class:`TenancyScenario` names several concurrent simulated
applications — each a :class:`JobSpec` with its own workload, rank count,
arrival time, and priority — that share one parallel file system and one
fabric. Arrival jitter is seeded per job, so a scenario is a pure
function of ``(jobs, seed)``: the same description always simulates the
same virtual history.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.util.errors import TenancyError

#: Workload kinds a job may run: the paper's synthetic benchmark
#: (Programs 2/3) replayed through the named I/O method.
WORKLOADS = ("tcio", "ocio", "mpiio")


@dataclass(frozen=True)
class JobSpec:
    """One simulated application inside a tenancy scenario.

    Attributes
    ----------
    name:
        Unique job id; becomes the job's PFS namespace prefix
        (``"<name>/"``), its metric-tree root, and its fault/error
        attribution tag.
    workload:
        One of :data:`WORKLOADS`.
    nranks:
        The job's rank count (its world is that big; ranks pack onto the
        job's private node range of the shared cluster).
    arrival:
        Virtual seconds after scenario start at which the job's ranks
        begin work (before jitter).
    priority:
        Fair-share weight under the ``"fair"`` QoS policy; higher means a
        faster per-tenant token line. Ignored under ``"fifo"``.
    journal:
        TCIO durability mode for tcio workloads ("off"/"epoch").
    params:
        Workload knobs: ``len_array``, ``size_access``, ``num_arrays``,
        ``type_codes``.
    """

    name: str
    workload: str = "tcio"
    nranks: int = 4
    arrival: float = 0.0
    priority: float = 1.0
    journal: str = "off"
    params: tuple = ()

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise TenancyError("job name must be non-empty and '/'-free")
        if self.workload not in WORKLOADS:
            raise TenancyError(
                f"unknown workload {self.workload!r}; pick one of {WORKLOADS}"
            )
        if self.nranks < 1:
            raise TenancyError("job needs at least one rank")
        if self.arrival < 0:
            raise TenancyError("arrival must be >= 0")
        if self.priority <= 0:
            raise TenancyError("priority must be positive")
        if self.journal not in ("off", "epoch"):
            raise TenancyError("journal must be 'off' or 'epoch'")

    @property
    def param_dict(self) -> dict:
        """The workload knobs as a plain dict."""
        return dict(self.params)

    def signature(self) -> tuple:
        """Hashable identity of the job's *solo* behavior.

        Everything that changes what the job computes or stores — but not
        its arrival or priority, which only matter under contention: the
        solo-baseline cache keys on this.
        """
        return (
            self.name, self.workload, self.nranks, self.journal, self.params,
        )


@dataclass(frozen=True)
class TenancyScenario:
    """Several jobs sharing one PFS/fabric.

    ``seed`` drives per-job arrival jitter (and seeded workloads);
    ``arrival_jitter`` is the max extra virtual seconds a job's arrival
    may slip, drawn deterministically per ``(seed, job name)``.
    ``cores_per_node`` shapes every job's private node range.
    """

    jobs: tuple[JobSpec, ...] = field(default_factory=tuple)
    seed: int = 0
    arrival_jitter: float = 0.0
    cores_per_node: int = 4

    def __post_init__(self) -> None:
        if not self.jobs:
            raise TenancyError("scenario needs at least one job")
        names = [j.name for j in self.jobs]
        if len(set(names)) != len(names):
            raise TenancyError(f"duplicate job names: {sorted(names)}")
        if self.arrival_jitter < 0:
            raise TenancyError("arrival_jitter must be >= 0")
        if self.cores_per_node < 1:
            raise TenancyError("cores_per_node must be >= 1")

    def job(self, name: str) -> JobSpec:
        """The job named *name*."""
        for j in self.jobs:
            if j.name == name:
                return j
        raise TenancyError(f"no job named {name!r}")

    def effective_arrival(self, spec: JobSpec) -> float:
        """The job's arrival including its seeded jitter draw.

        Deterministic per ``(scenario seed, job name)`` — independent of
        job order, the other jobs, and the platform (string seeding uses
        a stable hash).
        """
        if self.arrival_jitter == 0.0:
            return spec.arrival
        rng = random.Random(f"tenancy:{self.seed}:{spec.name}")
        return spec.arrival + rng.uniform(0.0, self.arrival_jitter)

    def solo(self, name: str) -> "TenancyScenario":
        """A one-job scenario: *name* alone on its own substrate.

        Arrival resets to zero (a solo baseline starts immediately);
        everything else — seed, node shape, the job's workload — is
        preserved, so solo and shared runs do identical work.
        """
        spec = replace(self.job(name), arrival=0.0)
        return TenancyScenario(
            jobs=(spec,),
            seed=self.seed,
            arrival_jitter=0.0,
            cores_per_node=self.cores_per_node,
        )


def two_job_scenario(
    *,
    seed: int = 0,
    nranks: int = 4,
    len_array: int = 512,
    journal: str = "epoch",
    jitter: float = 0.0,
    second_workload: str = "mpiio",
    arrival_b: float = 0.0,
) -> TenancyScenario:
    """The canonical 2-job interference scenario (smoke/CI/bench preset).

    Job ``a`` writes through TCIO (journaled by default, so fsck has
    something to verify); job ``b`` runs *second_workload* arriving
    ``arrival_b`` seconds later.
    """
    a = JobSpec(
        name="a", workload="tcio", nranks=nranks, journal=journal,
        params=(("len_array", len_array),),
    )
    b = JobSpec(
        name="b", workload=second_workload, nranks=nranks,
        arrival=arrival_b, params=(("len_array", len_array),),
    )
    return TenancyScenario(jobs=(a, b), seed=seed, arrival_jitter=jitter)


def parse_job(text: str) -> JobSpec:
    """Parse ``name:workload:nranks[:len_array]`` (the CLI job format)."""
    parts = text.split(":")
    if len(parts) < 3:
        raise TenancyError(
            f"bad job spec {text!r}; expected name:workload:nranks[:len_array]"
        )
    name, workload, nranks = parts[0], parts[1], int(parts[2])
    params: tuple = ()
    if len(parts) > 3:
        params = (("len_array", int(parts[3])),)
    return JobSpec(name=name, workload=workload, nranks=nranks, params=params)


def parse_scenario(
    specs: list[str], *, seed: int = 0, jitter: float = 0.0,
    cores_per_node: int = 4,
) -> TenancyScenario:
    """Parse a CLI job list into a scenario."""
    jobs = tuple(parse_job(s) for s in specs)
    return TenancyScenario(
        jobs=jobs, seed=seed, arrival_jitter=jitter,
        cores_per_node=cores_per_node,
    )
