"""The parallel campaign runner: points -> store hits + pool -> results.

Every campaign point is an independent deterministic job (its simulated
time depends only on its own parameters), so host-level parallelism is
free of ordering hazards: :class:`CampaignRunner` serves what the result
store already holds, fans the misses across a ``multiprocessing`` pool
and reassembles results keyed by point, and the figure assemblers
consume them in grid order. A worker computes *exactly* what the serial
path computes — the differential tests assert identical simulated times,
throughputs and output-byte hashes across serial, pooled and store-warm
executions.

Workers use the ``spawn`` start method: a fresh interpreter per worker
costs a few hundred milliseconds once, but never inherits engine threads
or module state from the parent, which keeps pool runs bit-reproducible
even mid-session (e.g. after the parent already ran simulations).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Iterable, Optional, Sequence

from repro.perf.points import Point, run_point, run_spec


def _worker(spec: dict) -> tuple[dict, dict, float]:
    """Pool-worker entry: run one point spec, report host seconds."""
    t0 = time.perf_counter()
    result = run_spec(spec)
    return spec, result, time.perf_counter() - t0


class CampaignRunner:
    """Turns campaign points into results: store hits, then fresh runs.

    Parameters
    ----------
    jobs: worker processes (default: the host's CPU count). ``1`` runs
        in-process (no pool) but still uses the store.
    store: a :class:`repro.campaign.store.CampaignStore` that serves
        already-computed points and receives every fresh result, or
        ``None`` to keep nothing.
    verbose: print one line per completed point plus a summary.

    ``meta`` is provenance stored with every fresh result next to its
    ``host_seconds`` (``run_sweep`` sets the sweep's name and grid);
    ``hits``/``misses`` count served and simulated points over the
    runner's lifetime.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        store=None,
        verbose: bool = False,
    ):
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.store = store
        self.verbose = verbose
        self.meta: dict = {}
        self.hits = 0
        self.misses = 0
        self.host_seconds = 0.0  # wall-clock of the last run() call

    # ------------------------------------------------------------------
    def __call__(self, points: Sequence[Point]) -> dict:
        return self.run(points)

    def run(self, points: Sequence[Point]) -> dict:
        """All results for *points* (store hits + fresh runs)."""
        t0 = time.perf_counter()
        results: dict[Point, dict] = {}
        misses: list[Point] = []
        for point in points:
            stored = self.store.get(point) if self.store is not None else None
            if stored is not None:
                results[point] = stored
                self._log(f"stored  {point.label()}")
            else:
                misses.append(point)
        if misses:
            if self.jobs == 1 or len(misses) == 1:
                self._run_serial(misses, results)
            else:
                self._run_pool(misses, results)
        served = len(points) - len(misses)
        self.hits += served
        self.misses += len(misses)
        self.host_seconds = time.perf_counter() - t0
        self._log(
            f"campaign: {len(points)} points "
            f"({served} stored, {len(misses)} run) "
            f"in {self.host_seconds:.1f} s host wall-clock "
            f"[jobs={self.jobs}]"
        )
        return results

    # ------------------------------------------------------------------
    def _run_serial(self, misses: Iterable[Point], results: dict) -> None:
        for point in misses:
            t0 = time.perf_counter()
            result = run_point(point)
            host = time.perf_counter() - t0
            self._store(point, result, host)
            results[point] = result

    def _run_pool(self, misses: Sequence[Point], results: dict) -> None:
        ctx = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(misses))
        # Points are submitted largest-first (by process count) so the
        # long jobs start immediately and short ones fill the tail —
        # classic LPT scheduling; result identity is order-independent.
        order = sorted(
            range(len(misses)),
            key=lambda i: -int(misses[i].get("nprocs", 0) or 0),
        )
        specs = [misses[i].as_spec() for i in order]
        with ctx.Pool(processes=workers) as pool:
            for spec, result, host in pool.imap_unordered(_worker, specs):
                point = Point.from_spec(spec)
                self._store(point, result, host)
                results[point] = result

    def _store(self, point: Point, result: dict, host: float) -> None:
        if self.store is not None:
            self.store.add_result(
                point, result, meta={"host_seconds": host, **self.meta}
            )
        self._log(f"ran     {point.label()}  [{host:.1f}s host]")

    def _log(self, message: str) -> None:
        if self.verbose:  # pragma: no cover - console convenience
            print(f"[perf] {message}", flush=True)
