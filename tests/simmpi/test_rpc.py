"""The request/reply envelope layer under ``repro.ioserver``.

Envelopes travel as pickled objects over the communicator's own
point-to-point calls on an endpoint's tag pair; these tests drive that
wire discipline directly.
"""

from __future__ import annotations

from repro.simmpi import run_mpi
from repro.simmpi.comm import ANY_SOURCE, unpack_object
from repro.simmpi.rpc import TAG_REPLY, TAG_REQUEST, RpcEndpoint, RpcEnvelope


def _recv_request(rpc, source=ANY_SOURCE):
    """-> ``(source_rank, envelope)``, as a service loop receives it."""
    req = yield from rpc.comm.irecv(source, rpc.tag_request)
    payload = yield from req.wait()
    return req.status.source, unpack_object(payload)


class TestEnvelope:
    def test_defaults_and_identity(self):
        e = RpcEnvelope(client=3, seq=7, op="write")
        assert e.args == ()
        assert e == RpcEnvelope(3, 7, "write", ())
        assert e != RpcEnvelope(3, 8, "write", ())

    def test_tag_pair_stays_clear_of_small_user_tags(self):
        assert TAG_REQUEST != TAG_REPLY
        assert min(TAG_REQUEST, TAG_REPLY) > 63


class TestEndToEnd:
    def test_echo_server_matches_kth_reply_to_kth_request(self):
        # Rank 0 serves; every other rank plays two logical clients and
        # calls the server several times. One request in flight per
        # client + non-overtaking per (source, tag) means no correlation
        # ids are needed: replies arrive in request order.
        nranks, calls = 3, 4

        def main(env):
            rpc = RpcEndpoint(env.comm)
            if env.rank == 0:
                expected = (nranks - 1) * 2 * calls
                served = 0
                while served < expected:
                    src, envelope = yield from _recv_request(rpc)
                    yield from env.comm.send_object(
                        ("echo", envelope.client, envelope.seq, envelope.args),
                        src, rpc.tag_reply,
                    )
                    served += 1
                return served
            got = []
            for k in range(calls):
                for client in (env.rank * 2, env.rank * 2 + 1):
                    yield from env.comm.send_object(
                        RpcEnvelope(client, k, "ping", (k * client,)),
                        0, rpc.tag_request,
                    )
                    got.append((yield from env.comm.recv_object(0, rpc.tag_reply)))
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
            rpc = RpcEndpoint(env.comm)
            if env.rank == 1:
                yield from env.comm.send_object(RpcEnvelope(0, 0, "ping"), 0, rpc.tag_request)
                return (yield from env.comm.recv_object(0, rpc.tag_reply))
            assert rpc.poll() is None  # nothing sent yet at t=0
            # Block until the request is matchable, then probe: poll
            # reports it without consuming, and recv still gets it.
            src, envelope = yield from _recv_request(rpc)
            assert rpc.poll() is None  # consumed — queue drained again
            yield from env.comm.send_object(("pong", envelope.seq), src, rpc.tag_reply)
            return envelope.op

        result = run_mpi(2, main)
        assert result.returns == ["ping", ("pong", 0)]

    def test_rpc_traffic_is_isolated_from_user_tags(self):
        # A bare user message with a small tag must never match the RPC
        # streams, and vice versa, on the same communicator.
        def main(env):
            rpc = RpcEndpoint(env.comm)
            if env.rank == 1:
                yield from env.comm.send_object("user-data", 0, 5)
                yield from env.comm.send_object(RpcEnvelope(9, 1, "op"), 0, rpc.tag_request)
                return None
            src, envelope = yield from _recv_request(rpc)
            user = yield from env.comm.recv_object(1, 5)
            return (src, envelope.client, user)

        result = run_mpi(2, main)
        assert result.returns[0] == (1, 9, "user-data")

    def test_endpoints_work_over_custom_tag_pairs(self):
        def main(env):
            a = RpcEndpoint(env.comm)
            b = RpcEndpoint(env.comm, tag_request=81, tag_reply=82)
            if env.rank == 1:
                # Fire on both endpoints; the streams stay separate.
                yield from env.comm.send_object(RpcEnvelope(0, 0, "beta"), 0, b.tag_request)
                yield from env.comm.send_object(RpcEnvelope(0, 0, "alpha"), 0, a.tag_request)
                ra = yield from env.comm.recv_object(0, a.tag_reply)
                rb = yield from env.comm.recv_object(0, b.tag_reply)
                return ra, rb
            _, ea = yield from _recv_request(a)
            _, eb = yield from _recv_request(b)
            yield from env.comm.send_object(ea.op.upper(), 1, a.tag_reply)
            yield from env.comm.send_object(eb.op.upper(), 1, b.tag_reply)
            return ea.op, eb.op

        result = run_mpi(2, main)
        assert result.returns[0] == ("alpha", "beta")
        assert result.returns[1] == ("ALPHA", "BETA")
