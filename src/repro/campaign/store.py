"""The one on-disk home of point results: result store *and* cache.

A store is a directory of schema-versioned JSON records, one per
executed point. Records come from two sources behind one schema:

* ``campaign`` — sweep/figure points (:meth:`CampaignStore.add_result`),
  always keyed under the current :func:`repro.perf.points.config_hash`;
* ``metrics`` — ``*.metrics.json`` observability snapshots
  (:meth:`CampaignStore.ingest_metrics`).

:meth:`CampaignStore.get` is the cache lookup — one direct file read
under the current config hash — so
:class:`repro.perf.campaign.CampaignRunner` reruns skip completed points
and a recalibration can never serve a stale one. Queries
(:meth:`CampaignStore.query`, :meth:`CampaignStore.distinct`) return
deterministically ordered data over the records of every config, so
everything rendered from a store — tables, charts, EXPERIMENTS.md
sections — is byte-reproducible and old evidence stays queryable.
:meth:`CampaignStore.results_for` is itself a runner (``points ->
{point: result}``): the same code that renders a section from fresh
simulations renders it from stored results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.perf.points import Point, config_hash
from repro.util.errors import ReproError

#: Bump on intentional record-format changes; old records are skipped.
STORE_SCHEMA = 1

#: Default store location (overridable per-call or via REPRO_STORE_DIR).
DEFAULT_STORE_DIR = ".repro-store"


class StoreError(ReproError):
    """A store operation failed (missing point, unreadable source, ...)."""


@dataclass(frozen=True)
class Record:
    """One stored measurement: a point identity plus its metrics.

    ``params`` mirrors :class:`repro.perf.points.Point.params` (sorted
    scalar pairs); ``metrics`` is the point's JSON-able result dict.
    ``config`` is the simulation config hash the result was produced
    under (``""`` for metrics snapshots), and ``meta`` carries
    provenance (sweep name, source file, host timing) that is *never*
    part of the record key or of rendered reports.
    """

    key: str
    source: str
    experiment: str
    params: tuple[tuple[str, object], ...]
    metrics: dict = field(hash=False)
    config: str = ""
    meta: dict = field(default_factory=dict, hash=False)

    def get(self, name: str, default: object = None) -> object:
        """One parameter's value (or *default*)."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def to_json(self) -> dict:
        return {
            "schema": STORE_SCHEMA,
            "key": self.key,
            "source": self.source,
            "experiment": self.experiment,
            "params": dict(self.params),
            "metrics": self.metrics,
            "config": self.config,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Record":
        return cls(
            key=str(data["key"]),
            source=str(data["source"]),
            experiment=str(data["experiment"]),
            params=tuple(sorted(data.get("params", {}).items())),
            metrics=dict(data.get("metrics", {})),
            config=str(data.get("config", "")),
            meta=dict(data.get("meta", {})),
        )


def record_key(source: str, experiment: str, params: dict, config: str) -> str:
    """The content-addressed record id (identity, not provenance)."""
    body = json.dumps(
        {
            "schema": STORE_SCHEMA,
            "source": source,
            "experiment": experiment,
            "params": dict(sorted(params.items())),
            "config": config,
        },
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()


class CampaignStore:
    """A directory of :class:`Record` JSON files.

    Parameters
    ----------
    root: store directory (created on first write). Defaults to
        ``$REPRO_STORE_DIR`` or ``.repro-store`` under the working dir.
    """

    def __init__(self, root: "str | Path | None" = None):
        if root is None:
            root = os.environ.get("REPRO_STORE_DIR", DEFAULT_STORE_DIR)
        self.root = Path(root)

    @property
    def records_dir(self) -> Path:
        return self.root / "records"

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def put(self, record: Record) -> Record:
        """Store one record (atomic rename; same key overwrites)."""
        self.records_dir.mkdir(parents=True, exist_ok=True)
        path = self.records_dir / f"{record.key}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(record.to_json(), sort_keys=True, indent=1),
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return record

    def add_result(
        self, point: Point, result: dict, *, meta: Optional[dict] = None
    ) -> Record:
        """Store one executed point's result under the current config."""
        config = config_hash()
        return self.put(Record(
            key=record_key(
                "campaign", point.experiment, dict(point.params), config
            ),
            source="campaign",
            experiment=point.experiment,
            params=point.params,
            metrics=dict(result),
            config=config,
            meta=dict(meta or {}),
        ))

    def ingest_metrics(self, path: "str | Path", name: Optional[str] = None) -> Record:
        """Import one ``*.metrics.json`` observability snapshot."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable metrics file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise StoreError(f"metrics file {path} is not a JSON object")
        params = {"name": name or path.stem}
        return self.put(Record(
            key=record_key("metrics", "metrics", params, ""),
            source="metrics",
            experiment="metrics",
            params=tuple(sorted(params.items())),
            metrics=doc,
            meta={"from": path.name},
        ))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def records(self) -> list[Record]:
        """Every current-schema record, sorted by (source, experiment, params)."""
        out: list[Record] = []
        if not self.records_dir.is_dir():
            return out
        for path in sorted(self.records_dir.iterdir()):
            if path.suffix != ".json":
                continue
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if data.get("schema") != STORE_SCHEMA:
                continue
            out.append(Record.from_json(data))
        out.sort(key=lambda r: (r.source, r.experiment, _sort_key(r.params)))
        return out

    def query(
        self,
        experiment: Optional[str] = None,
        *,
        source: Optional[str] = None,
        where: Optional[dict] = None,
        predicate: Optional[Callable[[Record], bool]] = None,
    ) -> list[Record]:
        """Records matching the filters, in deterministic order.

        ``where`` matches parameter equality (``{"method": "TCIO"}``);
        ``predicate`` is an arbitrary record filter applied last.
        """
        out = []
        for record in self.records():
            if experiment is not None and record.experiment != experiment:
                continue
            if source is not None and record.source != source:
                continue
            if where and any(record.get(k) != v for k, v in where.items()):
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def distinct(self, param: str, experiment: Optional[str] = None) -> list:
        """The sorted distinct values one parameter takes."""
        values = {
            record.get(param)
            for record in self.query(experiment)
            if record.get(param) is not None
        }
        return sorted(values, key=_value_key)

    def get(self, point: Point) -> Optional[dict]:
        """The stored result for *point* under the current config, or
        ``None`` on a miss.

        One direct read of the record the point's key names. Unreadable,
        truncated or wrong-schema files (e.g. a killed writer) count as
        misses and are overwritten by the next :meth:`add_result`; a
        record produced under another config hash has another key, so
        it is never served.
        """
        key = record_key(
            "campaign", point.experiment, dict(point.params), config_hash()
        )
        try:
            data = json.loads(
                (self.records_dir / f"{key}.json").read_text(encoding="utf-8")
            )
            if data["schema"] != STORE_SCHEMA:
                return None
            return dict(data["metrics"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def results_for(self, points: Iterable[Point]) -> dict:
        """:meth:`get` for every point; raises listing any missing.

        The store's runner: a figure harness or section builder given
        ``runner=store.results_for`` replays stored results, simulating
        nothing.
        """
        results, missing = {}, []
        for point in points:
            found = self.get(point)
            if found is None:
                missing.append(point.label())
            else:
                results[point] = found
        if missing:
            raise StoreError(
                "store is missing results for: " + ", ".join(missing)
                + " (run them under the current configuration first)"
            )
        return results

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.records_dir.is_dir():
            return 0
        return sum(1 for p in self.records_dir.iterdir() if p.suffix == ".json")

    def summary(self) -> dict:
        """Counts by source and experiment."""
        by_source: dict[str, int] = {}
        by_experiment: dict[str, int] = {}
        for record in self.records():
            by_source[record.source] = by_source.get(record.source, 0) + 1
            by_experiment[record.experiment] = (
                by_experiment.get(record.experiment, 0) + 1
            )
        return {
            "schema": STORE_SCHEMA,
            "records": sum(by_source.values()),
            "by_source": dict(sorted(by_source.items())),
            "by_experiment": dict(sorted(by_experiment.items())),
        }


def _value_key(value) -> tuple:
    """A total order over mixed scalar values (numbers first, then text)."""
    if isinstance(value, bool):
        return (1, "", int(value))
    if isinstance(value, (int, float)):
        return (0, "", float(value))
    return (2, str(value), 0.0)


def _sort_key(params: tuple) -> tuple:
    return tuple((k,) + _value_key(v) for k, v in params)

