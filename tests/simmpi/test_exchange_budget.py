"""A frame budget for the alltoall exchange that host noise cannot touch.

Counts Python ``call`` events inside ``repro.simmpi`` and ``repro.sim``
under ``sys.setprofile`` for alltoalls at P = 8 and P = 16 and bounds the
*marginal* frames per extra message. One message of the exchange is a
plain loop step at the sender plus its arrive and deliver events: pack it
for its size, look up the receiver's slot, launch it, post two events, pay
the matcher, land. Measured: 11.8 frames per eager message and 15.8 per
rendezvous one (the RTS/CTS/data events); the request path it replaced,
with an ``irecv`` and an ``isend`` generator, a request pair, an envelope,
a posted receive and a ``pickle.loads`` per message, took 40.6 and 48.6.
The bounds are about 1.25x the measured values.
"""

import os
import sys

import pytest

import repro
from repro.cluster.lonestar import make_lonestar
from repro.simmpi import collectives, run_mpi

PKG = os.path.dirname(repro.__file__) + os.sep
LAYERS = (PKG + "simmpi" + os.sep, PKG + "sim" + os.sep)
ROUNDS = 2
EAGER_LIMIT = make_lonestar().network.eager_limit


def _frames(nprocs: int, payload) -> int:
    entered = 0

    def profiler(frame, event, _arg):
        nonlocal entered
        if event == "call" and frame.f_code.co_filename.startswith(LAYERS):
            entered += 1

    def main(env):
        for _ in range(ROUNDS):
            got = yield from collectives.alltoall(env.comm, [payload] * env.size)
            assert got == [payload] * env.size

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = run_mpi(nprocs, main, cluster=make_lonestar(nranks=nprocs))
    finally:
        sys.setprofile(previous)
    assert result.aborted is None
    return entered


@pytest.mark.parametrize(
    "payload, budget",
    [((1, 2), 14.8), (b"x" * (2 * EAGER_LIMIT), 19.8)],
    ids=["eager", "rendezvous"],
)
def test_marginal_frames_per_alltoall_message(payload, budget):
    small, large = 8, 16
    extra_messages = ROUNDS * (large * (large - 1) - small * (small - 1))
    marginal = (_frames(large, payload) - _frames(small, payload)) / extra_messages
    assert marginal <= budget, f"{marginal:.2f} frames per message"
