"""The request/reply discipline under ``repro.ioserver``.

Envelopes travel by reference over the communicator's own point-to-point
calls on the protocol's tag pair; a server polls with ``iprobe`` and
receives with ``recv``. These tests drive that wire discipline directly.
"""

from __future__ import annotations

from repro.ioserver.protocol import TAG_REPLY, TAG_REQUEST
from repro.simmpi import run_mpi
from repro.simmpi.comm import ANY_SOURCE, Status
from repro.simmpi.rpc import RpcEnvelope


def _recv_request(comm, source=ANY_SOURCE, tag=TAG_REQUEST):
    """-> ``(source_rank, envelope)``, as a service loop receives it."""
    status = Status()
    envelope = yield from comm.recv(source, tag, status=status)
    return status.source, envelope


class TestEnvelope:
    def test_defaults_and_identity(self):
        e = RpcEnvelope(client=3, seq=7, op="write")
        assert e.args == ()
        assert e == RpcEnvelope(3, 7, "write", ())
        assert e != RpcEnvelope(3, 8, "write", ())

    def test_tag_pair_stays_clear_of_small_user_tags(self):
        assert (TAG_REQUEST, TAG_REPLY) == (71, 72)
        assert min(TAG_REQUEST, TAG_REPLY) > 63


class TestEndToEnd:
    def test_echo_server_matches_kth_reply_to_kth_request(self):
        # Rank 0 serves; every other rank plays two logical clients and
        # calls the server several times. One request in flight per
        # client + non-overtaking per (source, tag) means no correlation
        # ids are needed: replies arrive in request order.
        nranks, calls = 3, 4

        def main(env):
            if env.rank == 0:
                expected = (nranks - 1) * 2 * calls
                served = 0
                while served < expected:
                    src, envelope = yield from _recv_request(env.comm)
                    yield from env.comm.send(
                        ("echo", envelope.client, envelope.seq, envelope.args),
                        src, TAG_REPLY,
                    )
                    served += 1
                return served
            got = []
            for k in range(calls):
                for client in (env.rank * 2, env.rank * 2 + 1):
                    yield from env.comm.send(
                        RpcEnvelope(client, k, "ping", (k * client,)), 0, TAG_REQUEST
                    )
                    got.append((yield from env.comm.recv(0, TAG_REPLY)))
            return got

        result = run_mpi(nranks, main)
        assert result.returns[0] == (nranks - 1) * 2 * calls
        for rank in (1, 2):
            assert result.returns[rank] == [
                ("echo", client, k, (k * client,))
                for k in range(calls)
                for client in (rank * 2, rank * 2 + 1)
            ]

    def test_poll_sees_arrivals_without_consuming(self):
        def main(env):
            comm = env.comm
            if env.rank == 1:
                yield from comm.send(RpcEnvelope(0, 0, "ping"), 0, TAG_REQUEST)
                return (yield from comm.recv(0, TAG_REPLY))
            assert comm.iprobe(ANY_SOURCE, TAG_REQUEST) is None  # nothing sent at t=0
            # Wait until the request has arrived, then probe twice: the
            # probe reports it without consuming, and recv still gets it.
            while comm.iprobe(ANY_SOURCE, TAG_REQUEST) is None:
                env.compute(1e-6)
                yield from env.settle()
            status = comm.iprobe(ANY_SOURCE, TAG_REQUEST)
            assert status is not None and status.source == 1
            src, envelope = yield from _recv_request(comm, status.source)
            assert comm.iprobe(ANY_SOURCE, TAG_REQUEST) is None  # consumed
            yield from comm.send(("pong", envelope.seq), src, TAG_REPLY)
            return envelope.op

        result = run_mpi(2, main)
        assert result.returns == ["ping", ("pong", 0)]

    def test_rpc_traffic_is_isolated_from_user_tags(self):
        # A bare user message with a small tag must never match the RPC
        # streams, and vice versa, on the same communicator.
        def main(env):
            if env.rank == 1:
                yield from env.comm.send("user-data", 0, 5)
                yield from env.comm.send(RpcEnvelope(9, 1, "op"), 0, TAG_REQUEST)
                return None
            src, envelope = yield from _recv_request(env.comm)
            user = yield from env.comm.recv(1, 5)
            return (src, envelope.client, user)

        result = run_mpi(2, main)
        assert result.returns[0] == (1, 9, "user-data")

    def test_endpoints_work_over_custom_tag_pairs(self):
        custom_request, custom_reply = 81, 82

        def main(env):
            comm = env.comm
            if env.rank == 1:
                # Fire on both tag pairs; the streams stay separate.
                yield from comm.send(RpcEnvelope(0, 0, "beta"), 0, custom_request)
                yield from comm.send(RpcEnvelope(0, 0, "alpha"), 0, TAG_REQUEST)
                ra = yield from comm.recv(0, TAG_REPLY)
                rb = yield from comm.recv(0, custom_reply)
                return ra, rb
            _, ea = yield from _recv_request(comm)
            _, eb = yield from _recv_request(comm, tag=custom_request)
            yield from comm.send(ea.op.upper(), 1, TAG_REPLY)
            yield from comm.send(eb.op.upper(), 1, custom_reply)
            return ea.op, eb.op

        result = run_mpi(2, main)
        assert result.returns[0] == ("alpha", "beta")
        assert result.returns[1] == ("ALPHA", "BETA")
