"""Object messages travel by reference at the price of their pickle.

A send of a non-bytes object hands the receiver the sender's object
itself; the simulated wire is charged :func:`wire_size` of it, so the
clock must read exactly what an ``isend`` of that many bytes reads.
"""

from __future__ import annotations

import pytest

from repro.simmpi import run_mpi
from repro.simmpi.comm import Status, wire_size
from repro.simmpi.group import comm_split
from repro.simmpi.rpc import RpcEnvelope
from tests.conftest import make_test_cluster

CLUSTER = make_test_cluster()
EAGER_LIMIT = CLUSTER.network.eager_limit

#: One object below the eager limit and one well above it (rendezvous).
OBJECTS = {
    "eager": {"k": [1, 2, 3], "name": "eager"},
    "rendezvous": [(0, b"x" * EAGER_LIMIT), (1, b"y" * EAGER_LIMIT)],
}


def _exchange(message, *, split: bool):
    """Communicator rank 0 sends *message* to rank 1 after a short skew;
    rank 1 returns what it received, its status and its clock. Split, the
    world ranks {2, 0} and {3, 1} each form such a pair."""

    def main(env):
        comm = env.comm
        if split:  # two groups of two, ranks reversed within each
            comm = yield from comm_split(comm, env.rank % 2, key=-env.rank)
        if comm.rank > 1:
            return None
        if comm.rank == 0:
            env.compute(3e-6)
            yield from comm.send(message, 1, tag=4)
            return message
        status = Status()
        got = yield from comm.recv(0, 4, status=status)
        return got, status, env.now

    return run_mpi(4, main, cluster=CLUSTER)


@pytest.mark.parametrize("split", [False, True], ids=["world", "sub"])
@pytest.mark.parametrize("size", sorted(OBJECTS))
def test_an_object_costs_what_its_pickled_bytes_cost(size, split):
    obj = OBJECTS[size]
    nbytes = wire_size(obj)
    assert (nbytes > EAGER_LIMIT) == (size == "rendezvous")
    by_reference = _exchange(obj, split=split)
    as_bytes = _exchange(bytes(nbytes), split=split)
    sender, receiver = (2, 0) if split else (0, 1)
    got, status, clock = by_reference.returns[receiver]
    assert got is by_reference.returns[sender]  # the sender's object, not a copy
    assert status.count == nbytes
    assert status.source == 0
    _, bytes_status, bytes_clock = as_bytes.returns[receiver]
    assert bytes_status.count == nbytes
    assert clock == bytes_clock
    assert by_reference.elapsed == as_bytes.elapsed
    assert by_reference.world.engine.events == as_bytes.world.engine.events


def test_a_caller_priced_object_costs_its_given_bytes():
    obj = ["priced", "by", "the", "caller"]

    def main(env):
        if env.rank == 0:
            yield from env.comm.send(obj, 1, nbytes=3 * EAGER_LIMIT)
            return None
        status = Status()
        got = yield from env.comm.recv(0, status=status)
        return got, status.count, env.now

    got, count, clock = run_mpi(2, main, cluster=CLUSTER).returns[1]
    assert got is obj and count == 3 * EAGER_LIMIT

    def plain(env):
        if env.rank == 0:
            yield from env.comm.send(bytes(3 * EAGER_LIMIT), 1)
            return None
        yield from env.comm.recv(0)
        return env.now

    assert run_mpi(2, plain, cluster=CLUSTER).returns[1] == clock


def test_the_rpc_envelope_price_is_pinned():
    # Until the wire format is declared, a request is charged the pickle of
    # its envelope, and that pickle spells the module path
    # "repro.simmpi.rpc" (16 bytes), the class name and every field name.
    # Renaming any of them moves every simulated I/O-server time
    # (ioserver-trace's sim_total_s among them), so this pin must move
    # only together with a deliberate change of that price.
    assert wire_size(RpcEnvelope(3, 7, "write", (0, b"x" * 16))) == 117
    assert RpcEnvelope.__module__ == "repro.simmpi.rpc"
    assert list(RpcEnvelope.__dataclass_fields__) == ["client", "seq", "op", "args"]
