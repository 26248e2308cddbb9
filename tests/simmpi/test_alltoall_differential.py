"""The one-body alltoall against the request-path alltoall it replaced.

``alltoall`` used to post P-1 ``irecv`` and P-1 ``isend`` requests per
rank and ``wait_all`` on them, pickling every object on the way out and
unpickling it on the way in. It now posts the same messages from one
settle into per-receiver :class:`~repro.simmpi.comm.ExchangeSlot`\\ s and
hands the objects over by reference. That is only allowed to be cheaper
on the host, never different in simulated time: the same wire bytes, the
same fabric reservations in the same order, the same matching costs and
the same engine events. The old body is kept here, verbatim, as the
oracle; Hypothesis drives identical programs through both and compares
the returned lists, the engine clock, the engine's event count and the
whole metrics registry, exactly.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.lonestar import make_lonestar
from repro.simmpi import collectives, run_mpi
from repro.simmpi.comm import CTX_COLL, wait_all
from repro.simmpi.group import comm_split
from repro.util.errors import MpiError, RankUnreachable

def pack_object(obj) -> bytes:
    """The pickle the request path sent (the oracle's own serializer)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_object(payload: bytes):
    """The unpickle the request path received with."""
    return pickle.loads(payload)


#: The scaled Lonestar preset's eager limit: payloads straddle it.
EAGER_LIMIT = make_lonestar().network.eager_limit
#: The payload length whose message pickles to exactly EAGER_LIMIT bytes
#: (the largest eager message).
AT_LIMIT = EAGER_LIMIT - (len(pack_object((0, 0, 0, b"x" * 700))) - 700)


def oracle_alltoall(comm, send):
    """The request-path alltoall (the oracle)."""
    size, rank = comm.size, comm.rank
    if len(send) != size:
        raise MpiError(f"alltoall needs {size} entries, got {len(send)}")
    tag = collectives._next_tag(comm)
    recv_reqs = []
    for src in range(size):
        if src != rank:
            req = yield from comm.irecv(src, tag, context=CTX_COLL)
            recv_reqs.append(req)
    for dst in range(size):
        if dst != rank:
            yield from comm.isend(pack_object(send[dst]), dst, tag, context=CTX_COLL)
    yield from wait_all(recv_reqs)
    out = [None] * size
    out[rank] = send[rank]
    idx = 0
    for src in range(size):
        if src == rank:
            continue
        payload = recv_reqs[idx].payload
        idx += 1
        assert payload is not None
        out[src] = unpack_object(payload)
    return out


def _cluster(cores_per_node: int):
    return replace(make_lonestar(), nodes=12, cores_per_node=cores_per_node)


def _outcome(result):
    assert result.aborted is None, result.aborted
    return (
        result.returns,
        result.elapsed,
        result.world.engine.events,
        result.trace.registry.flat(),
    )


@st.composite
def programs(draw):
    nranks = draw(st.integers(2, 12))
    return dict(
        nranks=nranks,
        cores_per_node=draw(st.sampled_from([1, 3, 12])),
        # 0 = the world communicator, k = split into k colors
        colors=draw(st.integers(0, 3)),
        steps=draw(st.lists(
            st.tuples(
                # payload lengths, cycled over (rank, destination) pairs,
                # on both sides of the eager limit once pickled
                st.lists(
                    st.sampled_from([0, 5, AT_LIMIT, AT_LIMIT + 1, 3000]),
                    min_size=1, max_size=4,
                ),
                # per-rank compute before the collective, in microseconds:
                # skewed ranks post late and find their messages unexpected
                st.lists(st.integers(0, 40), min_size=nranks, max_size=nranks),
                # point-to-point ring traffic posted before the alltoall and
                # received after it: (payload length, tag)
                st.sampled_from([None, (3, 1), (EAGER_LIMIT * 2, 2)]),
            ),
            min_size=1, max_size=4,
        )),
    )


def _program(spec, exchange):
    def main(env):
        comm = env.comm
        if spec["colors"]:
            comm = yield from comm_split(comm, env.rank % spec["colors"])
        got = []
        for step, (lengths, skew, ring) in enumerate(spec["steps"]):
            env.compute(skew[env.rank] * 1e-6)
            if ring is not None:
                length, tag = ring
                right = (env.rank + 1) % env.size
                yield from env.comm.isend(bytes([step]) * length, right, tag)
            send = [
                (step, comm.rank, dst, b"x" * lengths[(comm.rank * comm.size + dst) % len(lengths)])
                for dst in range(comm.size)
            ]
            got.append((yield from exchange(comm, send)))
            if ring is not None:
                left = (env.rank - 1) % env.size
                got.append((yield from env.comm.recv(left, ring[1])))
        return got

    return main


@given(programs())
@settings(max_examples=60, deadline=None)
def test_alltoall_matches_the_request_path(spec):
    runs = [
        run_mpi(spec["nranks"], _program(spec, exchange), cluster=_cluster(spec["cores_per_node"]))
        for exchange in (oracle_alltoall, collectives.alltoall)
    ]
    assert _outcome(runs[1]) == _outcome(runs[0])


@pytest.mark.parametrize("nranks", [2, 5, 12])
def test_back_to_back_alltoalls_leave_no_slot_behind(nranks):
    def main(env):
        for step in range(3):
            env.compute(env.rank * 1e-6)
            got = yield from collectives.alltoall(env.comm, [(step, d) for d in range(env.size)])
            assert got == [(step, env.rank)] * env.size

    result = run_mpi(nranks, main, cluster=_cluster(3))
    assert result.world.exchange_slots == {}
    mailboxes = [result.world.mailbox(r) for r in range(nranks)]
    assert all(m.n_posted == 0 and m.n_unexpected == 0 for m in mailboxes)


# ----------------------------------------------------------------------
# fail-stop
# ----------------------------------------------------------------------


def _parked_in_alltoall(exchange, *, survive: bool):
    """Every rank posts an alltoall of rendezvous-sized objects and parks;
    rank 3 is killed right after, with all the data still in flight. With
    *survive*, the peers shrink and meet in a barrier that rank 0 reaches
    5 ms late, long after the abandoned exchange's data has landed
    (microseconds in)."""

    def main(env):
        if env.rank == 0:
            env.world.engine.schedule(1e-9, lambda: env.world.kill_ranks([3], where="test"))
        send = [bytes(4 * EAGER_LIMIT)] * env.size
        if not survive:
            yield from exchange(env.comm, send)
            return "done"
        try:
            yield from exchange(env.comm, send)
        except RankUnreachable:
            pass
        sub = yield from env.comm.shrink()
        if env.rank == 0:
            env.compute(5e-3)
        yield from collectives.barrier(sub)
        return env.world.engine.now

    return main


def test_death_in_alltoall_aborts_like_the_request_path():
    runs = [
        run_mpi(4, _parked_in_alltoall(exchange, survive=False), cluster=_cluster(1))
        for exchange in (oracle_alltoall, collectives.alltoall)
    ]
    assert type(runs[1].aborted) is type(runs[0].aborted) is RankUnreachable
    assert str(runs[1].aborted) == str(runs[0].aborted)
    assert runs[1].elapsed == runs[0].elapsed
    assert runs[1].dead_ranks == runs[0].dead_ranks == {3}


def test_late_landing_never_wakes_a_survivor_out_of_a_later_wait():
    runs = [
        run_mpi(4, _parked_in_alltoall(exchange, survive=True), cluster=_cluster(1))
        for exchange in (oracle_alltoall, collectives.alltoall)
    ]
    for result in runs:
        assert result.aborted is None, result.aborted
        left = [result.returns[r] for r in (0, 1, 2)]
        # nobody leaves the barrier before rank 0 arrives at it
        assert left[1] == left[2] == left[0] >= 5e-3
    assert runs[1].returns == runs[0].returns
    assert runs[1].trace.registry.flat() == runs[0].trace.registry.flat()
