"""Delegate failover: kill a delegate, the session completes anyway.

The survive column of the server crash matrix. With
``IoServerConfig.failover`` armed, a delegate death at any service-loop
step must leave a *completed* run: the dead delegate's clients redirect
to the ring-next alive delegate and replay their acked-but-uncommitted
writes, the surviving delegates shrink the shared TCIO handle and flush
on, and the final file equals the analytic image **byte-for-byte** — the
client-side replay buffer means failover loses nothing, unlike bare-TCIO
survival where the victim's level-1-only bytes are legitimately gone.
"""

from __future__ import annotations

import pytest

from repro.crash.harness import SERVER_STEPS, run_cell
from repro.ioserver import (
    IoServerConfig,
    Placement,
    adopted_clients,
    expected_image,
    failover_delegate,
    generate_trace,
    run_ioserver,
)
from repro.util.errors import IoServerError, RankUnreachable

NCLIENTS = 6
SEED = 7


@pytest.fixture(scope="module")
def trace():
    # Same shape as the abort-mode server matrix: dense and write-only,
    # so every srv-* step has an aimable hit during the write phase (the
    # failover window covers writes; a read-phase death still aborts).
    return generate_trace(
        SEED, NCLIENTS, epochs=2, writes_per_epoch=3,
        reads_per_client=0, dense=True,
    )


# ----------------------------------------------------------------------
# the survive column: one cell per service-loop step
# ----------------------------------------------------------------------


@pytest.mark.parametrize("step", SERVER_STEPS)
def test_server_survive_cell(step, trace):
    cell = run_cell(step, kind="server", survive=True, nclients=NCLIENTS,
                    seed=SEED, trace=trace)
    assert not cell.aborted, f"{step}: failover run must complete"
    assert cell.ok, cell.summary()
    assert cell.fsck is not None and cell.fsck.clean
    assert cell.fsck.torn_bytes == 0 and cell.fsck.untracked_bytes == 0


def test_survive_cell_is_deterministic(trace):
    a = run_cell("srv-apply", kind="server", survive=True, nclients=NCLIENTS,
                 seed=SEED, trace=trace)
    b = run_cell("srv-apply", kind="server", survive=True, nclients=NCLIENTS,
                 seed=SEED, trace=trace)
    assert a.ok and b.ok
    assert a.crash_after == b.crash_after
    assert a.detail == b.detail


def test_failover_run_reports_redirects_and_adoption(trace):
    from repro.faults import FaultPlan, FaultSpec
    from repro.ioserver import plan_for

    config = IoServerConfig(failover=True)
    placement = plan_for(trace, 6, 3, config)
    victim = placement.delegates[-1]
    plan = FaultPlan(FaultSpec(), SEED, scope="crash-count")
    run_ioserver(trace, nranks=6, cores_per_node=3, config=config, faults=plan)
    hits = plan.step_hits[("srv-apply", victim)]
    armed = FaultPlan(
        FaultSpec(crash_rank=victim, crash_step="srv-apply", crash_after=hits),
        SEED, scope="crash",
    )
    result = run_ioserver(
        trace, nranks=6, cores_per_node=3, config=config, faults=armed
    )
    assert result.aborted is None
    assert result.mpi.dead_ranks == {victim}
    assert result.image == expected_image(trace)
    reg = result.mpi.trace.registry
    assert reg.counter("ioserver.failover.redirects").total >= 1
    assert reg.counter("ioserver.failover.adopted").total >= 1
    assert reg.counter("tcio.ft.survives").total >= 1
    # The surviving delegate reports the adopted clients and the rounds
    # it acknowledged retroactively.
    stats = {s["rank"]: s for s in result.delegate_stats}
    assert victim not in stats  # the dead delegate never returns
    survivor = next(d for d in placement.delegates if d != victim)
    assert stats[survivor]["adopted_clients"] >= 1
    # The redirected clients' replies still form a complete session: the
    # client-side result dicts carry their redirect counts.
    redirected = [
        r for r in placement.client_ranks
        if result.mpi.returns[r].get("redirects")
    ]
    assert redirected


@pytest.mark.parametrize("step", ["srv-admit", "srv-apply", "srv-flush"])
def test_failover_off_still_aborts(step, trace):
    # The control: same aimed crash without failover must abort (this is
    # the existing abort-and-recover contract) with the fail-stop error
    # itself — never the client session's internal redirect signal.
    from repro.faults import FaultPlan, FaultSpec
    from repro.ioserver import plan_for
    from repro.ioserver.server import _DelegateLost

    config = IoServerConfig()
    placement = plan_for(trace, 6, 3, config)
    victim = placement.delegates[-1]
    plan = FaultPlan(FaultSpec(), SEED, scope="crash-count")
    run_ioserver(trace, nranks=6, cores_per_node=3, config=config, faults=plan)
    hits = plan.step_hits[(step, victim)]
    armed = FaultPlan(
        FaultSpec(crash_rank=victim, crash_step=step, crash_after=hits),
        SEED, scope="crash",
    )
    result = run_ioserver(
        trace, nranks=6, cores_per_node=3, config=config, faults=armed
    )
    assert type(result.aborted) is RankUnreachable
    assert not isinstance(result.aborted, _DelegateLost)
    assert f"rank {victim} is unreachable" in str(result.aborted)


def test_failover_noop_without_faults(trace):
    # Failover armed but nobody dies: byte-identical outcome to the
    # plain server path, zero failover machinery engaged.
    plain = run_ioserver(trace, nranks=6, cores_per_node=3,
                         config=IoServerConfig())
    armed = run_ioserver(trace, nranks=6, cores_per_node=3,
                         config=IoServerConfig(failover=True))
    assert plain.aborted is None and armed.aborted is None
    assert armed.image == plain.image
    assert armed.mpi.trace.registry.counter(
        "ioserver.failover.redirects"
    ).count == 0


# ----------------------------------------------------------------------
# placement-level failover computations (pure)
# ----------------------------------------------------------------------


def _placement():
    return Placement(
        delegates=(0, 3, 6),
        client_ranks=(1, 2, 4, 5, 7, 8),
        rank_of_client=(1, 2, 4, 5, 7, 8),
        delegate_of_rank={1: 0, 2: 0, 4: 3, 5: 3, 7: 6, 8: 6},
    )


def test_failover_delegate_ring_walk():
    p = _placement()
    assert failover_delegate(p, 3, {3}) == 6
    assert failover_delegate(p, 6, {6}) == 0  # wraps around
    assert failover_delegate(p, 3, {3, 6}) == 0  # skips a dead standby
    assert failover_delegate(p, 0, {3}) == 0  # alive: its own standby


def test_failover_delegate_all_dead_raises():
    with pytest.raises(IoServerError):
        failover_delegate(_placement(), 0, {0, 3, 6})


def test_adopted_clients_matches_redirects():
    p = _placement()
    # Delegate 3 dies: its client ranks (4, 5) redirect to delegate 6.
    assert adopted_clients(p, 6, {3}) == {2, 3}
    assert adopted_clients(p, 0, {3}) == set()
    # Cascading: 3 and 6 both dead, everything lands on 0.
    assert adopted_clients(p, 0, {3, 6}) == {2, 3, 4, 5}


def test_failover_requires_epoch_journal():
    with pytest.raises(IoServerError):
        IoServerConfig(failover=True, journal="off").validate()
