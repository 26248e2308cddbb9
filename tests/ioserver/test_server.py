"""Delegate-server sessions: placement, end-to-end runs, determinism.

Holds the PR's acceptance checks: a 64-client seeded trace through
delegate servers produces throughput/queue-depth/tail-latency metrics,
ends byte-identical to synchronous TCIO, recovers byte-identically after
a mid-epoch delegate crash, and replaying the same trace+seed twice
yields identical ``(time, seq)`` event schedules and metrics documents.
"""

from __future__ import annotations

import pytest

from repro.ioserver import (
    IoServerConfig,
    expected_fetch,
    expected_image,
    generate_trace,
    plan_placement,
    replay_direct,
    run_ioserver,
)
from repro.util.errors import IoServerError


class TestPlacement:
    def test_leaders_mode_picks_node_leaders(self):
        # 6 ranks, 3 per node -> leaders 0 and 3; everyone else clients.
        p = plan_placement([0, 0, 0, 1, 1, 1], 8, IoServerConfig())
        assert p.delegates == (0, 3)
        assert p.client_ranks == (1, 2, 4, 5)
        assert len(p.rank_of_client) == 8

    def test_clients_round_robin_over_client_ranks(self):
        p = plan_placement([0, 0, 0, 1, 1, 1], 8, IoServerConfig())
        assert p.rank_of_client == (1, 2, 4, 5, 1, 2, 4, 5)
        assert p.clients_of_rank(1) == (0, 4)

    def test_same_node_delegate_preferred(self):
        p = plan_placement([0, 0, 0, 1, 1, 1], 4, IoServerConfig())
        assert p.delegate_of_rank[1] == 0
        assert p.delegate_of_rank[4] == 3

    def test_explicit_delegates(self):
        p = plan_placement(
            [0, 0, 1, 1], 4, IoServerConfig(delegates=(2,))
        )
        assert p.delegates == (2,)
        assert p.client_ranks == (0, 1, 3)

    def test_delegate_partition_covers_all_clients(self):
        p = plan_placement([0, 0, 0, 1, 1, 1], 10, IoServerConfig())
        got = sorted(
            c for d in p.delegates for c in p.clients_of_delegate(d)
        )
        assert got == list(range(10))

    def test_all_ranks_delegates_rejected(self):
        with pytest.raises(IoServerError):
            plan_placement([0, 1], 2, IoServerConfig(delegates=(0, 1)))

    def test_out_of_range_delegate_rejected(self):
        with pytest.raises(IoServerError):
            plan_placement([0, 0], 2, IoServerConfig(delegates=(5,)))

    def test_config_validation(self):
        with pytest.raises(IoServerError):
            IoServerConfig(queue_depth=0).validate()
        with pytest.raises(IoServerError):
            IoServerConfig(delegates="everyone").validate()
        with pytest.raises(IoServerError):
            IoServerConfig(delegates=()).validate()


class TestServerSession:
    def test_small_session_byte_identical_to_analytic_image(self):
        trace = generate_trace(5, 6, epochs=2, reads_per_client=2)
        result = run_ioserver(trace, nranks=6, cores_per_node=3)
        assert result.aborted is None
        assert result.image == expected_image(trace)
        assert result.epochs_committed == trace.epochs

    def test_every_fetch_answer_matches_the_final_image(self):
        trace = generate_trace(5, 6, epochs=2, reads_per_client=2)
        result = run_ioserver(trace, nranks=6, cores_per_node=3)
        fetch_ops = {op.seq: op for op in trace.ops if op.op == "fetch"}
        assert set(result.fetched) == set(fetch_ops)
        for seq, data in result.fetched.items():
            assert data == expected_fetch(trace, fetch_ops[seq])

    def test_explicit_delegate_placement_runs(self):
        trace = generate_trace(5, 4, epochs=2, reads_per_client=0)
        result = run_ioserver(
            trace, nranks=4, cores_per_node=2,
            config=IoServerConfig(delegates=(0,)),
        )
        assert result.aborted is None
        assert result.ndelegates == 1
        assert result.image == expected_image(trace)

    def test_delegate_stats_account_for_every_request(self):
        trace = generate_trace(8, 6, epochs=2, reads_per_client=1)
        result = run_ioserver(trace, nranks=6, cores_per_node=3)
        writes = sum(1 for op in trace.ops if op.op == "write")
        fetches = sum(1 for op in trace.ops if op.op == "fetch")
        assert result.applied_writes == writes
        assert sum(s["applied_fetches"] for s in result.delegate_stats) == fetches
        assert result.rejected == 0
        assert result.admitted == writes + fetches
        assert sum(s["written_bytes"] for s in result.delegate_stats) == (
            trace.written_bytes
        )


class TestAcceptance64Clients:
    """The issue's acceptance bar, verbatim."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(11, 64, epochs=3, reads_per_client=2)

    @pytest.fixture(scope="class")
    def result(self, trace):
        return run_ioserver(trace, nranks=6, cores_per_node=3)

    def test_load_metrics_are_produced(self, result):
        assert result.aborted is None
        assert result.throughput > 0
        assert result.max_depth >= 1
        for verb in ("write", "flush", "fetch"):
            q = result.latency[verb]
            assert q["n"] > 0
            assert 0 < q["p50"] <= q["p90"] <= q["p99"] <= q["max"]

    def test_byte_identical_to_synchronous_tcio(self, trace, result):
        direct = replay_direct(trace, "tcio", nranks=4, cores_per_node=2)
        assert result.image == direct.image == expected_image(trace)
        assert result.fetched == direct.fetched

    def test_mid_epoch_delegate_crash_recovers_byte_identically(self):
        from repro.crash.harness import run_cell

        cell = run_cell("srv-apply", kind="server", nclients=8, seed=11)
        assert cell.aborted
        assert cell.ok, cell.summary()

    def test_same_seed_replays_identically(self, trace):
        runs = []
        for _ in range(2):
            result = run_ioserver(trace, nranks=6, cores_per_node=3)
            client_returns = [
                r for r in result.mpi.returns if r["role"] == "client"
            ]
            runs.append((
                # The (time, seq) schedule witness: exact virtual elapsed,
                # exact executed-event count, and every client's raw
                # latency samples in rank order (any reordering of the
                # event heap would perturb at least one of these).
                result.elapsed,
                result.mpi.world.engine.events,
                [r["latencies"] for r in client_returns],
                result.metrics_payload(),
            ))
        assert runs[0] == runs[1]
