"""Request semantics and miscellaneous communicator behaviour."""

import pytest

from repro.simmpi import run_mpi
from repro.simmpi.comm import Request, wait_all
from repro.util.errors import MpiError
from tests.conftest import make_test_cluster


def run(n, fn):
    return run_mpi(n, fn, cluster=make_test_cluster())


class TestRequests:
    def test_double_completion_rejected(self):
        req = Request("x")
        req._complete(b"a")
        with pytest.raises(MpiError):
            req._complete(b"b")

    def test_wait_on_completed_request_is_immediate(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(b"pre", 1))
            else:
                env.compute(1e-3)
                (yield from env.settle())
                req = (yield from env.comm.irecv(0))
                # message already arrived; both waits return the payload
                assert (yield from req.wait()) == b"pre"
                assert (yield from req.wait()) == b"pre"

        run(2, main)

    def test_wait_all_with_empty_list(self):
        def main(env):
            (yield from wait_all([]))

        run(1, main)

    def test_wait_all_with_mixed_completion(self):
        def main(env):
            if env.rank == 0:
                (yield from env.comm.send(b"a", 1, tag=1))
                env.compute(5e-3)
                (yield from env.settle())
                (yield from env.comm.send(b"b", 1, tag=2))
            else:
                r1 = (yield from env.comm.irecv(0, 1))
                r2 = (yield from env.comm.irecv(0, 2))
                env.compute(1e-3)
                (yield from env.settle())
                (yield from wait_all([r1, r2]))
                assert r1.payload == b"a" and r2.payload == b"b"

        run(2, main)

    def test_two_waiters_on_one_request_rejected(self):
        def main(env):
            req = (yield from env.comm.irecv(0, 99))
            req._waiter = object()  # simulate another waiter
            with pytest.raises(MpiError):
                (yield from req.wait())
            req._waiter = None

        # rank 1 only; never receives, so don't let the job end blocked
        def safe(env):
            if env.rank == 1:
                req = (yield from env.comm.irecv(0, 99))
                req._waiter = object()
                with pytest.raises(MpiError):
                    (yield from req.wait())
                req._waiter = None
            env.comm.world.shared.setdefault("done", True)

        run(2, safe)

    def test_unsupported_payload_type_rejected(self):
        # Any object travels, priced at its pickle; one that does not
        # pickle has no wire size and is refused before anything is sent.
        def main(env):
            with pytest.raises(MpiError, match="unsupported send payload type generator"):
                (yield from env.comm.isend((x for x in ()), (env.rank + 1) % env.size))

        run(2, main)
