"""The multi-job runner: containment, namespacing, QoS, fairness."""

from __future__ import annotations

import json

import pytest

from repro.faults.plan import FaultSpec
from repro.simmpi import run_mpi
from repro.tenancy import (
    JobSpec,
    TenancyScenario,
    build_workload,
    clear_solo_cache,
    run_scenario,
    scenario_cluster,
    two_job_scenario,
)
from repro.util.errors import TenancyError


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_solo_cache()
    yield
    clear_solo_cache()


def small_scenario(seed=5, **kw):
    kw.setdefault("nranks", 2)
    kw.setdefault("len_array", 256)
    return two_job_scenario(seed=seed, **kw)


#: Metric names whose values depend only on WHAT a job did, never on
#: WHEN the scheduler let it do it. The namespacing invariant is that a
#: job's shared-run tree matches its solo-run tree exactly on these.
STABLE_PREFIXES = ("pfs.write", "pfs.read", "crash.journal", "net.", "mpi.")


def stable_counters(registry) -> dict:
    flat = registry.flat()["counters"]
    return {
        name: value
        for name, value in flat.items()
        if name.startswith(STABLE_PREFIXES)
    }


class TestSharedRun:
    def test_jobs_complete_and_outputs_verify(self):
        result = run_scenario(small_scenario(), solo_baseline=False)
        assert all(j.aborted is None for j in result.jobs.values())
        assert set(result.jobs) == {"a", "b"}
        # verify=True already checked bytes against the workload oracles
        assert all(j.files for j in result.jobs.values())

    def test_per_job_namespaces_are_disjoint_on_the_shared_pfs(self):
        result = run_scenario(small_scenario(), solo_baseline=False)
        names = list(result.pfs.list_files())
        assert all(n.startswith(("a/", "b/")) for n in names)
        # both jobs wrote a file with the SAME tenant-relative name shape
        # and never collided
        assert "a/a.dat" in names and "b/b.dat" in names

    def test_metric_trees_are_disjoint_and_solo_subsets_identical(self):
        # Satellite: two concurrent jobs produce disjoint obs metric
        # trees whose timing-independent subset is bit-identical to an
        # actual solo run of the same job.
        scenario = small_scenario()
        shared = run_scenario(scenario, solo_baseline=False)
        for name in ("a", "b"):
            solo = run_scenario(scenario.solo(name), solo_baseline=False)
            want = stable_counters(solo.jobs[name].recorder.registry)
            got = stable_counters(shared.jobs[name].recorder.registry)
            assert want, f"job {name}: stable subset unexpectedly empty"
            assert got == want
        # the journaled job's tree carries journal counters; its
        # journal-less neighbor's tree must not
        a_names = set(shared.jobs["a"].recorder.registry.names())
        b_names = set(shared.jobs["b"].recorder.registry.names())
        assert any(n.startswith("crash.journal") for n in a_names)
        assert not any(n.startswith("crash.journal") for n in b_names)
        # host counters stay in the shared (engine-context) registry
        assert "host.engine.events" in set(shared.shared.registry.names())
        assert "host.engine.events" not in a_names | b_names

    def test_arrival_delays_job_start(self):
        late = TenancyScenario(
            jobs=(
                JobSpec(name="a", nranks=2, params=(("len_array", 128),)),
                JobSpec(
                    name="b", workload="mpiio", nranks=2, arrival=5e-4,
                    params=(("len_array", 128),),
                ),
            ),
            seed=1,
        )
        result = run_scenario(late, solo_baseline=False)
        assert result.jobs["b"].arrival == 5e-4
        assert result.jobs["b"].finish >= 5e-4


class TestQos:
    def test_policies_are_deterministic_and_distinct(self):
        payloads = {}
        for qos in ("fifo", "fair"):
            clear_solo_cache()
            first = run_scenario(small_scenario(), qos=qos).metrics_json()
            clear_solo_cache()
            second = run_scenario(small_scenario(), qos=qos).metrics_json()
            assert json.dumps(first, sort_keys=True) == json.dumps(
                second, sort_keys=True
            )
            payloads[qos] = first
        # same bytes under both policies...
        assert {n: j["files"] for n, j in payloads["fifo"]["jobs"].items()} == {
            n: j["files"] for n, j in payloads["fair"]["jobs"].items()
        }
        # ...but different virtual timing: the policy axis is real
        assert any(
            payloads["fifo"]["jobs"][n]["elapsed"]
            != payloads["fair"]["jobs"][n]["elapsed"]
            for n in payloads["fifo"]["jobs"]
        )

    def test_priority_weights_shift_fair_share(self):
        def scenario(prio_a):
            return TenancyScenario(
                jobs=(
                    JobSpec(
                        name="a", nranks=2, priority=prio_a,
                        params=(("len_array", 256),),
                    ),
                    JobSpec(
                        name="b", workload="ocio", nranks=2,
                        params=(("len_array", 256),),
                    ),
                ),
                seed=2,
            )

        even = run_scenario(scenario(1.0), qos="fair", solo_baseline=False)
        boosted = run_scenario(scenario(8.0), qos="fair", solo_baseline=False)
        # a higher weight can only help job a's completion time
        assert boosted.jobs["a"].elapsed <= even.jobs["a"].elapsed
        # and never changes anyone's bytes
        assert boosted.jobs["a"].files == even.jobs["a"].files
        assert boosted.jobs["b"].files == even.jobs["b"].files

    def test_unknown_policy_rejected(self):
        from repro.util.errors import PfsError

        with pytest.raises(PfsError):
            run_scenario(small_scenario(), qos="lottery")


class TestFairnessMetrics:
    def test_solo_baselines_slowdown_and_jain(self):
        result = run_scenario(small_scenario())
        for job in result.jobs.values():
            assert job.solo_elapsed is not None and job.solo_elapsed > 0
            assert job.slowdown is not None and job.slowdown >= 1.0
        assert result.jain_index is not None
        assert 0.0 < result.jain_index <= 1.0

    def test_metrics_json_is_wall_clock_free_and_complete(self):
        payload = run_scenario(small_scenario()).metrics_json()
        assert payload["schema"] == "repro.tenancy/1"
        assert set(payload["jobs"]) == {"a", "b"}
        assert payload["fairness"]["jain_index"] is not None
        assert payload["pfs"]["osts"], "per-OST contention report missing"
        blob = json.dumps(payload)
        assert "wall" not in blob and "hostname" not in blob

    def test_ost_report_attributes_bytes_to_tenants(self):
        result = run_scenario(small_scenario(), solo_baseline=False)
        tenants_seen = set()
        for row in result.ost_report():
            tenants_seen.update(row["tenants"])
            for per in row["tenants"].values():
                assert per["read"] >= 0 and per["written"] >= 0
        assert tenants_seen == {"a", "b"}

    def test_lock_report_covers_each_jobs_files(self):
        result = run_scenario(small_scenario(), solo_baseline=False)
        report = result.lock_report()
        assert "a.dat" in report["a"]
        assert "b.dat" in report["b"]


class TestCrashContainment:
    def test_one_jobs_crash_leaves_the_neighbor_byte_identical(self):
        scenario = small_scenario(seed=2)
        faults = {
            "a": FaultSpec(crash_rank=0, crash_step="post-deposit")
        }
        shared = run_scenario(scenario, faults=faults, solo_baseline=False)
        assert shared.jobs["a"].aborted is not None
        assert shared.jobs["a"].aborted.job == "a"
        assert shared.jobs["b"].aborted is None
        solo_b = run_scenario(scenario.solo("b"), solo_baseline=False)
        assert shared.jobs["b"].files == solo_b.jobs["b"].files

    def test_a_late_victims_crash_leaves_its_tcio_neighbor_byte_identical(self):
        # The chaos soak's shape: the victim arrives after its neighbour,
        # so it can be the last job still running when it aborts; the
        # abort stays inside the victim and its ranks wind down.
        scenario = TenancyScenario(
            jobs=(
                JobSpec(name="alpha", workload="tcio", nranks=4, journal="epoch"),
                JobSpec(
                    name="victim", workload="tcio", nranks=4, journal="epoch",
                    arrival=0.0005,
                ),
            ),
            seed=11,
        )
        faults = {"victim": FaultSpec(crash_rank=2, crash_step="pre-commit")}
        shared = run_scenario(scenario, faults=faults, solo_baseline=False)
        victim, alpha = shared.jobs["victim"], shared.jobs["alpha"]
        assert victim.world.dead_ranks and victim.aborted is not None
        assert victim.aborted.job == "victim"
        assert alpha.aborted is None
        solo = run_scenario(scenario.solo("alpha"), solo_baseline=False)
        assert alpha.files == solo.jobs["alpha"].files
        pfs = shared.pfs
        assert sum(pfs.lookup(n).locks.queued_count for n in pfs.list_files()) == 0

    def test_crashed_jobs_file_recovers_with_job_attribution(self):
        from repro.crash.recover import recover

        scenario = small_scenario(seed=2, journal="epoch")
        faults = {
            "a": FaultSpec(crash_rank=0, crash_step="post-deposit")
        }
        shared = run_scenario(scenario, faults=faults, solo_baseline=False)
        report = recover(shared.pfs, "a/a.dat", job="a")
        assert report.job == "a"
        assert "[job a]" in report.summary()


class TestValidation:
    def test_byte_divergence_is_a_hard_error(self):
        # Sabotage the oracle to prove verification really compares bytes.
        from repro.tenancy import runner as runner_mod

        scenario = small_scenario()
        original = runner_mod.build_workload

        def sabotaged(spec, **kw):
            workload = original(spec, **kw)
            if spec.name == "a":
                workload.expected = {
                    name: data + b"X" for name, data in workload.expected.items()
                }
            return workload

        runner_mod.build_workload = sabotaged
        try:
            with pytest.raises(TenancyError) as err:
                run_scenario(scenario, solo_baseline=False)
            assert err.value.job == "a"
        finally:
            runner_mod.build_workload = original


class TestOneLauncher:
    @pytest.mark.parametrize(
        "workload,journal",
        [("tcio", "epoch"), ("tcio", "off"), ("ocio", "off"), ("mpiio", "off")],
    )
    def test_a_one_job_scenario_is_a_run_mpi_run(self, workload, journal):
        spec = JobSpec(name="solo", workload=workload, nranks=4, journal=journal)
        scenario = TenancyScenario(jobs=(spec,), seed=3)
        shared = run_scenario(scenario)
        run = run_mpi(4, build_workload(spec).main, cluster=scenario_cluster(scenario))
        job = shared.jobs["solo"]
        assert job.files == {n: run.pfs.lookup(n).contents() for n in run.pfs.list_files()}
        assert shared.elapsed == job.elapsed == run.elapsed
        events = shared.shared.registry.get("host.engine.events")
        assert events.total == run.trace.registry.get("host.engine.events").total > 0
        # The job counts all of its own traffic, engine-context rendezvous
        # payloads included: its registry is run_mpi's, bar the machine's
        # event count.
        want = run.trace.registry.flat()
        del want["counters"]["host.engine.events"]
        assert job.recorder.registry.flat() == want
