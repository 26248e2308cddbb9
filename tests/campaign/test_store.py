"""Result store: the cache lookup, queries, ingestion, the store as a runner."""

from __future__ import annotations

import json

import pytest

from repro.campaign.report import store_series
from repro.campaign.store import (
    CampaignStore,
    Record,
    StoreError,
    record_key,
)
from repro.perf.points import Point, config_hash

POINT = Point.make("fig5", method="TCIO", nprocs=4, len_array=64)
RESULT = {"write_throughput": 1.0, "file_sha256": "ab" * 32}


def _fake_result(value: float) -> dict:
    return {"write_throughput": value, "write_seconds": 1.0 / value,
            "file_sha256": "00"}


def _put_under_config(store: CampaignStore, point: Point, config: str,
                      result: dict) -> Record:
    """A campaign record as a run under another calibration left it."""
    return store.put(Record(
        key=record_key(
            "campaign", point.experiment, dict(point.params), config
        ),
        source="campaign",
        experiment=point.experiment,
        params=point.params,
        metrics=result,
        config=config,
    ))


def _filled_store(tmp_path) -> CampaignStore:
    store = CampaignStore(tmp_path / "store")
    for nprocs, value in ((4, 10.0), (8, 20.0), (16, 40.0)):
        for method, factor in (("TCIO", 1.0), ("OCIO", 0.5)):
            point = Point.make(
                "fig5", method=method, nprocs=nprocs, len_array=64
            )
            store.add_result(point, _fake_result(value * factor))
    return store


class TestAddAndQuery:
    def test_add_result_and_len(self, tmp_path):
        store = _filled_store(tmp_path)
        assert len(store) == 6

    def test_same_point_overwrites(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = Point.make("fig5", method="TCIO", nprocs=4, len_array=64)
        store.add_result(point, _fake_result(1.0))
        store.add_result(point, _fake_result(2.0))
        assert len(store) == 1
        assert store.records()[0].metrics["write_throughput"] == 2.0

    def test_query_filters_params(self, tmp_path):
        store = _filled_store(tmp_path)
        records = store.query("fig5", where={"method": "TCIO"})
        assert len(records) == 3
        assert all(r.get("method") == "TCIO" for r in records)

    def test_query_order_is_deterministic(self, tmp_path):
        store = _filled_store(tmp_path)
        keys = [r.key for r in store.query()]
        assert keys == [r.key for r in store.query()]
        nprocs = [r.get("nprocs") for r in store.query(where={"method": "TCIO"})]
        assert nprocs == [4, 8, 16]  # numeric, not lexicographic

    def test_distinct(self, tmp_path):
        store = _filled_store(tmp_path)
        assert store.distinct("nprocs") == [4, 8, 16]
        assert store.distinct("method") == ["OCIO", "TCIO"]

    def test_series(self, tmp_path):
        store = _filled_store(tmp_path)
        xs, series = store_series(
            store, "fig5", x="nprocs", y="write_throughput",
            where={"method": "TCIO"},
        )
        assert xs == [4, 8, 16]
        assert series == {"write_throughput": [10.0, 20.0, 40.0]}

    def test_wrong_schema_records_skipped(self, tmp_path):
        store = _filled_store(tmp_path)
        rogue = store.records_dir / "rogue.json"
        rogue.write_text(json.dumps({"schema": 999, "key": "x"}))
        assert len(store.records()) == 6


class TestStoreAsCache:
    """The result-cache contract, asserted on the one store."""

    def _record_path(self, store: CampaignStore, point: Point):
        key = record_key(
            "campaign", point.experiment, dict(point.params), config_hash()
        )
        return store.records_dir / f"{key}.json"

    def test_miss_then_hit_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        assert store.get(POINT) is None
        store.add_result(POINT, RESULT, meta={"host_seconds": 1.5})
        assert store.get(POINT) == RESULT
        assert len(store) == 1

    def test_key_distinguishes_points(self, tmp_path):
        store = CampaignStore(tmp_path)
        other = Point.make("fig5", method="OCIO", nprocs=4, len_array=64)
        assert self._record_path(store, POINT) != self._record_path(store, other)
        store.add_result(POINT, RESULT)
        assert store.get(other) is None

    def test_key_is_stable_across_instances(self, tmp_path):
        CampaignStore(tmp_path).add_result(POINT, RESULT)
        assert CampaignStore(tmp_path).get(POINT) == RESULT

    def test_config_hash_invalidation(self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path)
        store.add_result(POINT, RESULT)
        # Simulate a calibration change: the key no longer matches the
        # record written under the old configuration.
        monkeypatch.setattr(
            "repro.campaign.store.config_hash", lambda: "0" * 16
        )
        assert store.get(POINT) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.add_result(POINT, RESULT)
        path = self._record_path(store, POINT)
        path.write_text(path.read_text()[:10])
        assert store.get(POINT) is None
        store.add_result(POINT, RESULT)  # the next put overwrites it
        assert store.get(POINT) == RESULT

    def test_wrong_schema_entry_is_a_miss(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.add_result(POINT, RESULT)
        path = self._record_path(store, POINT)
        path.write_text(json.dumps({**json.loads(path.read_text()), "schema": 999}))
        assert store.get(POINT) is None

    def test_entry_carries_provenance(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.add_result(POINT, RESULT, meta={"host_seconds": 2.0})
        entry = json.loads(self._record_path(store, POINT).read_text())
        assert entry["experiment"] == "fig5"
        assert entry["meta"]["host_seconds"] == 2.0
        assert entry["config"] == config_hash()

    def test_atomic_put_leaves_no_tmp(self, tmp_path):
        store = _filled_store(tmp_path)
        assert not list(store.root.rglob("*.tmp"))

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "from-env"))
        assert CampaignStore().root == tmp_path / "from-env"

    def test_put_touches_only_its_own_record(self, tmp_path, monkeypatch):
        # put() used to re-read every record to rewrite a summary file,
        # making N puts O(N^2); now it writes one file and reads none.
        store = _filled_store(tmp_path)
        from pathlib import Path

        def no_reads(self, *args, **kwargs):
            raise AssertionError(f"put read {self}")

        monkeypatch.setattr(Path, "read_text", no_reads)
        before = {p.name for p in store.records_dir.iterdir()}
        fresh = Point.make("fig5", method="TCIO", nprocs=32, len_array=64)
        record = store.add_result(fresh, RESULT)
        after = {p.name for p in store.records_dir.iterdir()}
        assert after - before == {f"{record.key}.json"}
        assert sorted(p.name for p in store.root.iterdir()) == ["records"]


class TestNoStaleEvidence:
    """Records of another calibration stay queryable but are never served."""

    def test_only_current_config_is_served(self, tmp_path):
        store = CampaignStore(tmp_path)
        _put_under_config(store, POINT, "old-calibration", {"write_throughput": 9.0})
        store.add_result(POINT, RESULT)
        assert len(store) == 2
        assert store.get(POINT) == RESULT
        assert store.results_for([POINT]) == {POINT: RESULT}

    def test_foreign_config_only_raises_naming_the_point(self, tmp_path):
        store = CampaignStore(tmp_path)
        _put_under_config(store, POINT, "old-calibration", {"write_throughput": 9.0})
        _put_under_config(store, POINT, "", {"write_throughput": 8.0})
        assert store.get(POINT) is None
        with pytest.raises(StoreError, match=r"method=TCIO, nprocs=4"):
            store.results_for([POINT])

    def test_query_lists_every_config(self, tmp_path):
        store = CampaignStore(tmp_path)
        _put_under_config(store, POINT, "old-calibration", {"write_throughput": 9.0})
        store.add_result(POINT, RESULT)
        configs = {r.config for r in store.query("fig5")}
        assert configs == {"old-calibration", config_hash()}


class TestIngestion:
    def test_ingest_metrics(self, tmp_path):
        snap = tmp_path / "run.metrics.json"
        snap.write_text(json.dumps({"engine.events": 42}))
        store = CampaignStore(tmp_path / "store")
        record = store.ingest_metrics(snap)
        assert record.experiment == "metrics"
        assert record.metrics == {"engine.events": 42}

    def test_sources_coexist(self, tmp_path):
        store = _filled_store(tmp_path)
        snap = tmp_path / "x.metrics.json"
        snap.write_text("{}")
        store.ingest_metrics(snap)
        assert len(store.query(source="campaign")) == 6
        assert len(store.query(source="metrics")) == 1


class TestStoreRunner:
    """``store.results_for`` is a runner: ``points -> {point: result}``."""

    def test_serves_points_through_results_for(self, tmp_path):
        store = _filled_store(tmp_path)
        points = [
            Point.make("fig5", method="TCIO", nprocs=n, len_array=64)
            for n in (4, 8, 16)
        ]
        results = store.results_for(points)
        assert results[points[0]]["write_throughput"] == 10.0
        assert results[points[2]]["write_throughput"] == 40.0

    def test_missing_point_raises_with_label(self, tmp_path):
        store = _filled_store(tmp_path)
        missing = Point.make("fig5", method="TCIO", nprocs=32, len_array=64)
        with pytest.raises(StoreError, match=r"nprocs=32"):
            store.results_for([missing])
