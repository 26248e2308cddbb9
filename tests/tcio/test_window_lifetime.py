"""The level-2 RMA window lives exactly as long as the level-2 allocation.

``close()`` frees it after its final barrier in both modes, and a survive
round frees the old partition's window at the swap; ``abort()`` frees
only the simulated memory, so a peer's late flush still lands.
"""

from dataclasses import replace

import pytest

from repro.crash.harness import _make_config, _run
from repro.faults import FaultPlan, FaultSpec
from repro.simmpi import collectives as coll
from repro.simmpi import run_mpi
from repro.tcio import (
    TCIO_RDONLY,
    TCIO_WRONLY,
    TcioConfig,
    tcio_close,
    tcio_fetch,
    tcio_open,
    tcio_read_at,
    tcio_write_at,
)
from repro.util.errors import MpiError
from tests.conftest import make_test_cluster


def run(n, fn):
    return run_mpi(n, fn, cluster=make_test_cluster())


def cfg(nranks):
    return TcioConfig.sized_for(64, nranks, 16)


class TestCloseFreesTheWindow:
    def test_write_close(self):
        def main(env):
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg(env.size))
            win_id = fh.level2.window.win_id
            assert env.world.window_buffer(win_id, env.rank) is not None
            yield from tcio_write_at(fh, env.rank * 8, bytes([65 + env.rank]) * 8)
            yield from tcio_close(fh)
            with pytest.raises(MpiError):
                env.world.window_buffer(win_id, env.rank)

        res = run(4, main)
        assert res.world._windows == {} and res.world._window_locks == {}
        assert res.pfs.lookup("f").contents() == b"".join(bytes([65 + r]) * 8 for r in range(4))

    def test_read_close(self):
        def main(env):
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg(env.size))
            yield from tcio_write_at(fh, env.rank * 4, b"%04d" % env.rank)
            yield from tcio_close(fh)
            fh = yield from tcio_open(env, "f", TCIO_RDONLY, cfg(env.size))
            buf = bytearray(4)
            yield from tcio_read_at(fh, ((env.rank + 1) % env.size) * 4, buf)
            yield from tcio_fetch(fh)
            yield from tcio_close(fh)
            return bytes(buf)

        res = run(4, main)
        assert res.returns == [b"0001", b"0002", b"0003", b"0000"]
        assert res.world._windows == {}


class TestSurviveSwapFreesTheOldWindow:
    def test_only_the_dead_ranks_exposure_is_left(self):
        nranks, victim, seed = 4, 1, 7
        config = replace(_make_config(nranks, "epoch", "flat"), ft=True)
        count = FaultPlan(FaultSpec(), seed, scope="crash-count")
        _run("count.dat", config, nranks, 2, faults=count)
        spec = FaultSpec(
            crash_rank=victim,
            crash_step="post-deposit",
            crash_after=count.step_hits[("post-deposit", victim)],
        )
        result = _run("survive.dat", config, nranks, 2, faults=FaultPlan(spec, seed, scope="crash"))
        assert result.aborted is None and result.dead_ranks == {victim}
        world = result.world
        # Each survivor exposed a second level-2 window at the swap, freed
        # the first there and the second at close; the victim never freed.
        assert world._windows_per_rank == [2, 1, 2, 2]
        assert list(world._windows) == [(0, victim)]


class TestAbortKeepsTheWindow:
    def test_a_peers_late_flush_lands_in_the_aborted_rank(self):
        def main(env):
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg(env.size))
            if env.rank == 1:
                fh.abort()
            yield from coll.barrier(env.comm)
            if env.rank == 0:
                # Segment 1 lives on rank 1; moving on to segment 0 drains
                # level 1 into rank 1's window.
                yield from tcio_write_at(fh, 16, b"late-flush-bytes")
                yield from tcio_write_at(fh, 0, b"x")
            yield from coll.barrier(env.comm)
            if env.rank == 0:
                fh.abort()
            return fh.level2.local_slot(1).tobytes() if env.rank == 1 else None

        res = run(2, main)
        assert res.returns[1] == b"late-flush-bytes"
