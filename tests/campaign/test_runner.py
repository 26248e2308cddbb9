"""run_sweep glue + the newly sweepable point parameters."""

from __future__ import annotations

import pytest

from repro.campaign.report import store_series
from repro.campaign.runner import run_sweep, smoke_spec, smoke_store
from repro.campaign.spec import grid
from repro.campaign.store import CampaignStore
from repro.perf.campaign import CampaignRunner
from repro.perf.points import Point, config_hash, run_point


class TestRunSweep:
    def test_serial_sweep_lands_in_store(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        spec = grid(
            "fig5", name="tiny",
            base={"method": "TCIO", "nprocs": 4},
            len_array=[64, 256],
        )
        results = run_sweep(spec, store=store)
        assert len(results) == 2
        assert len(store) == 2
        record = store.query("fig5", where={"len_array": 64})[0]
        assert record.meta["sweep"] == "tiny"
        assert record.meta["spec"]["axes"] == {"len_array": [64, 256]}

    def test_cached_sweep_matches_serial(self, tmp_path):
        spec = grid(
            "fig5", name="tiny",
            base={"method": "TCIO", "nprocs": 4},
            len_array=[64],
        )
        serial = run_sweep(spec)
        store = CampaignStore(tmp_path / "store")
        cold = run_sweep(spec, store=store)
        warm = run_sweep(spec, store=store)
        assert cold == serial == warm
        assert len(store) == 1

    def test_one_record_identity_across_entry_points(self, tmp_path):
        # A plain sweep, a pooled store-backed sweep and a bare runner
        # (what ``report --store`` and ``campaign explore --store`` build)
        # must all land a point on the same record.
        store = CampaignStore(tmp_path / "store")
        spec = smoke_spec()
        run_sweep(spec, store=store)
        run_sweep(spec, store=store, jobs=2)
        CampaignRunner(1, store=store).run(spec.points())
        assert len(store) == 2
        assert {r.config for r in store.records()} == {config_hash()}
        xs, _ = store_series(store, "fig5", x="method", y="write_throughput")
        assert xs == ["OCIO", "TCIO"]

    def test_warm_sweep_keeps_the_producing_sweeps_provenance(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        spec = smoke_spec()
        run_sweep(spec, store=store)
        before = [(r.key, r.meta) for r in store.records()]
        assert all(meta["host_seconds"] > 0 for _, meta in before)
        run_sweep(spec, store=store)  # every point served: nothing rewritten
        assert [(r.key, r.meta) for r in store.records()] == before

    def test_smoke_store_builds_two_points(self, tmp_path):
        store = smoke_store(tmp_path / "store")
        assert len(store) == 2
        assert {r.get("method") for r in store.query("fig5")} == {
            "TCIO", "OCIO",
        }

    def test_smoke_spec_is_smoke_sized(self):
        spec = smoke_spec()
        assert spec.size() == 2
        assert all(int(p.get("nprocs")) <= 8 for p in spec.points())


class TestSweepableParameters:
    """The campaign axes opened up beyond the four figure presets."""

    def _run(self, **params) -> dict:
        return run_point(Point.make(**params))

    def test_fig5_segment_bytes_changes_tcio_write(self):
        base = dict(
            experiment="fig5", method="TCIO", nprocs=4, len_array=256
        )
        default = self._run(**base)
        small = self._run(**base, segment_bytes=128)
        assert small["file_sha256"] == default["file_sha256"]  # bytes identical
        assert small["write_seconds"] != default["write_seconds"]

    def test_fig5_cb_nodes_changes_ocio_write(self):
        # large enough that the stripe-aligned file domains don't collapse
        # onto one aggregator anyway
        base = dict(
            experiment="fig5", method="OCIO", nprocs=8, len_array=1024
        )
        default = self._run(**base)
        narrow = self._run(**base, cb_nodes=1)
        assert narrow["file_sha256"] == default["file_sha256"]
        assert narrow["write_seconds"] != default["write_seconds"]

    def test_fig5_aggregation_axis(self):
        base = dict(
            experiment="fig5", method="TCIO", nprocs=4, len_array=256
        )
        node = self._run(**base, aggregation="node")
        assert node["file_sha256"] == self._run(**base)["file_sha256"]

    def test_topo_net_profile_axis(self):
        base = dict(
            experiment="topo", method="TCIO", aggregation="flat",
            nprocs=8, cores_per_node=4, len_array=1024,
        )
        default = self._run(**base, net="default")
        heavy = self._run(**base, net="rma-heavy")
        assert heavy["file_sha256"] == default["file_sha256"]
        assert heavy["write_seconds"] > default["write_seconds"]

    def test_topo_net_default_param_matches_omitted(self):
        base = dict(
            experiment="topo", method="TCIO", aggregation="flat",
            nprocs=8, cores_per_node=4, len_array=1024,
        )
        assert self._run(**base, net="default") == self._run(**base)

    def test_topo_unknown_net_rejected(self):
        with pytest.raises(ValueError, match="unknown net profile"):
            self._run(
                experiment="topo", method="TCIO", aggregation="flat",
                nprocs=8, cores_per_node=4, len_array=1024, net="quantum",
            )

    def test_ioserver_delegates_axis(self):
        base = dict(
            experiment="ioserver", nclients=8, nranks=6, cores_per_node=3,
            epochs=2, seed=11,
        )
        leaders = self._run(**base)
        one = self._run(**base, delegates=1)
        assert one["file_sha256"] == leaders["file_sha256"]
        assert one["elapsed"] != leaders["elapsed"]

    def test_ioserver_queue_depth_axis(self):
        base = dict(
            experiment="ioserver", nclients=8, nranks=6, cores_per_node=3,
            epochs=2, seed=11,
        )
        deep = self._run(**base, queue_depth=64)
        assert deep["file_sha256"] == self._run(**base)["file_sha256"]
