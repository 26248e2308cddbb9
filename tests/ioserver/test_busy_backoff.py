"""``ServerBusy`` backoff determinism under many-client overload.

The open thousands-of-clients item needs the overload path to be a
*schedule*, not a dice roll: with many concurrent clients hammering one
depth-1 delegate, every BUSY rejection, every jittered backoff sleep and
therefore every latency sample must replay bit-identically from the
trace seed. The jitter stream is pinned here by value — it feeds
``derive_seed(seed, "busy", client, seq, attempt)``, which is SHA-256
over the names and platform-stable, so these constants only change if
someone changes the formula.
"""

from __future__ import annotations

from repro.ioserver import (
    IoServerConfig,
    expected_image,
    generate_trace,
    run_ioserver,
)
from repro.ioserver.server import BACKOFF_BASE
from repro.util.rng import derive_seed

SEED = 3
NCLIENTS = 16


def overload_run():
    """One delegate, five zero-think client ranks, a depth-1 queue."""
    trace = generate_trace(
        SEED, NCLIENTS, epochs=2, writes_per_epoch=3,
        reads_per_client=1, mean_think=0.0,
    )
    config = IoServerConfig(queue_depth=1, max_retries=24)
    return trace, run_ioserver(trace, nranks=6, cores_per_node=6, config=config)


def test_overload_schedule_replays_bit_identically():
    trace, a = overload_run()
    _, b = overload_run()
    assert a.aborted is None and b.aborted is None
    rej = a.mpi.trace.get("ioserver.rejected").count
    ret = a.mpi.trace.get("ioserver.retries").count
    assert rej > 0 and ret > 0  # the queue actually pushed back
    assert b.mpi.trace.get("ioserver.rejected").count == rej
    assert b.mpi.trace.get("ioserver.retries").count == ret
    # The exact-schedule witness: every per-op latency sample — each one
    # the sum of that request's network trips and jittered backoff
    # sleeps on the virtual clock — is float-identical across replays.
    for rank, ra in enumerate(a.mpi.returns):
        rb = b.mpi.returns[rank]
        if ra is None or "latencies" not in ra:
            continue
        assert ra["latencies"] == rb["latencies"]
    # And the rejections never cost correctness.
    assert a.image == b.image == expected_image(trace)


def test_backoff_jitter_stream_is_pinned():
    # The client backoff is BACKOFF_BASE * 2**min(attempt, 6) * (1 + j)
    # with j = (derive_seed(seed, "busy", client, seq, attempt) % 1000)
    # / 1000 — seeded per (client, seq, attempt), so concurrent clients
    # de-synchronize instead of stampeding in lockstep.
    pinned = {
        (0, 5, 0): 0.804,
        (3, 17, 1): 0.433,
        (7, 2, 6): 0.641,
    }
    for (client, seq, attempt), expect in pinned.items():
        j = (derive_seed(SEED, "busy", client, seq, attempt) % 1000) / 1000.0
        assert j == expect
    base = BACKOFF_BASE
    for attempt in (0, 1, 6, 9):
        j = (derive_seed(SEED, "busy", 0, 5, attempt) % 1000) / 1000.0
        backoff = base * (2 ** min(attempt, 6)) * (1.0 + j)
        # Bounded exponential: within [2^a, 2^(a+1)) times base, capped
        # at the attempt-6 tier.
        tier = 2 ** min(attempt, 6)
        assert base * tier <= backoff < base * tier * 2


def test_distinct_clients_draw_distinct_jitter():
    draws = {
        (derive_seed(SEED, "busy", client, 5, 0) % 1000) / 1000.0
        for client in range(NCLIENTS)
    }
    # 16 clients, 1000 buckets: collisions are possible but wholesale
    # synchronization is not.
    assert len(draws) >= NCLIENTS - 2
