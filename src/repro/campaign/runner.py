"""Glue: run a sweep spec through the campaign runner into the store.

:func:`run_sweep` is the one-call path behind ``python -m repro campaign
run``: enumerate a :class:`repro.campaign.spec.SweepSpec` into points
and execute them through :class:`repro.perf.campaign.CampaignRunner`,
which serves what the :class:`repro.campaign.store.CampaignStore`
already holds and lands every fresh result there with the sweep recorded
as provenance. :func:`smoke_store` builds the tiny deterministic store
the CI bit-determinism check renders reports from.
"""

from __future__ import annotations

from typing import Optional

from repro.campaign.spec import SweepSpec
from repro.campaign.store import CampaignStore
from repro.perf.campaign import CampaignRunner


def run_sweep(
    spec: SweepSpec,
    *,
    store: Optional[CampaignStore] = None,
    jobs: Optional[int] = 1,
    verbose: bool = False,
) -> dict:
    """Execute one sweep spec; returns ``{point: result dict}``.

    ``jobs`` is the worker-process count (default: serial in-process;
    ``None`` = one per CPU). With *store*, points it already holds are
    served from it and every fresh result is recorded with the sweep's
    name and grid as provenance metadata — queryable but never part of
    record identity, so the same point reached by another sweep, a
    ``report`` run or the explorer is the same record.
    """
    runner = CampaignRunner(jobs, store=store, verbose=verbose)
    runner.meta = {"sweep": spec.name, "spec": spec.to_dict()}
    return runner.run(spec.points())


#: The two points the CI determinism check runs on: one TCIO and one
#: OCIO fig5 point at SMOKE sizes (fractions of a second each).
def smoke_spec() -> SweepSpec:
    """The tiny sweep the ``--smoke`` store is built from."""
    from repro.campaign.spec import grid
    from repro.experiments.common import SMOKE

    return grid(
        "fig5",
        name="smoke",
        base={"len_array": SMOKE.len_array, "nprocs": 4},
        method=["TCIO", "OCIO"],
    )


def smoke_store(root, *, verbose: bool = False) -> CampaignStore:
    """Build (or refresh) the two-point smoke store at *root*.

    Runs :func:`smoke_spec` into the store — a second build over the
    same *root* is a pure replay — and returns it. This is what
    ``python -m repro campaign report --smoke`` renders from; CI builds
    it twice and asserts the rendered bytes are identical.
    """
    store = CampaignStore(root)
    run_sweep(smoke_spec(), store=store, verbose=verbose)
    return store
