"""Fault paths through ``TcioFile.close()`` (not just ``write_at``).

The injection matrix in ``test_injection.py`` drives faults through the
benchmark's explicit-flush write loop; these tests cover the *deferred*
path — data still sitting in level-1 buffers when ``tcio_close`` runs —
and the contract when degradation itself fails:

1. An unreachable segment owner discovered during close degrades to
   direct PFS writes; the file is still byte-correct and the fallback is
   recorded on the plan.
2. If the degraded path *also* exhausts its retry budget, ``close()``
   propagates :class:`RetryBudgetExceeded` to the caller — it must not
   swallow the error and report a clean close over missing bytes.
3. A degraded flush that overlaps another rank's deposits raises the
   ``faults.data_at_risk`` alarm end-to-end.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.simmpi import run_mpi
from repro.tcio import TCIO_WRONLY, TcioConfig, tcio_open, tcio_write_at
from repro.tcio.degrade import Degrade
from repro.util.errors import RetryBudgetExceeded
from tests.conftest import make_test_cluster

SEGMENT = 64
PER_RANK = 96  # spans two segments, so every rank deposits to a peer


def pattern(rank: int, n: int = PER_RANK) -> bytes:
    return bytes((rank * 37 + i) % 251 + 1 for i in range(n))


def cfg(nranks: int) -> TcioConfig:
    return TcioConfig.sized_for(nranks * PER_RANK, nranks, SEGMENT)


def run(n, fn, spec, seed=7):
    plan = FaultPlan(spec, seed)
    res = run_mpi(n, fn, cluster=make_test_cluster(), faults=plan)
    return res, plan


class TestCloseDegradation:
    def test_unreachable_owner_at_close_degrades_and_verifies(self):
        # No explicit flush: the deposits (including the doomed push to
        # rank 1) all happen inside tcio_close.
        def main(env):
            fh = (yield from tcio_open(env, "f", TCIO_WRONLY, cfg(env.size)))
            (yield from tcio_write_at(fh, env.rank * PER_RANK, pattern(env.rank)))
            (yield from fh.close())

        res, plan = run(2, main, FaultSpec(unreachable_ranks=(1,)))
        assert res.aborted is None
        assert res.pfs.lookup("f").contents() == pattern(0) + pattern(1)
        assert any(what == "tcio.flush" for what, _ in plan.fallbacks)
        assert plan.injected("rma.put") > 0

    def test_close_propagates_when_degradation_fails(self, monkeypatch):
        # Contract: the except-RetryBudgetExceeded around the deposit
        # must not also absorb a failure of the fallback itself.
        def broken_fallback(self, gseg, disps, lens, payload):
            raise RetryBudgetExceeded("tcio.fallback_flush", attempts=4)

        monkeypatch.setattr(Degrade, "fallback_flush", broken_fallback)

        def main(env):
            fh = (yield from tcio_open(env, "f", TCIO_WRONLY, cfg(env.size)))
            (yield from tcio_write_at(fh, env.rank * PER_RANK, pattern(env.rank)))
            (yield from fh.close())

        with pytest.raises(RetryBudgetExceeded):
            run(2, main, FaultSpec(unreachable_ranks=(1,)))


class TestDataAtRiskAlarm:
    def test_overlapping_fallback_raises_the_alarm(self):
        # Rank 1 deposits into its own (unreachable-to-others) segment,
        # then rank 0 writes the same region and is forced to fall back:
        # the direct write masks rank 1's deposit out of the writeback.
        off, n = SEGMENT, 32  # inside segment 1, owned by rank 1

        def main(env):
            fh = (yield from tcio_open(env, "f", TCIO_WRONLY, cfg(env.size)))
            if env.rank == 1:
                (yield from tcio_write_at(fh, off, pattern(1, n)))
            (yield from fh.flush())  # collective: rank 1's deposit is now on record
            if env.rank == 0:
                (yield from tcio_write_at(fh, off, pattern(0, n)))
            (yield from fh.flush())  # rank 0's doomed push degrades over the deposit
            (yield from fh.close())

        with pytest.warns(RuntimeWarning, match="deposits will not be written"):
            res, plan = run(2, main, FaultSpec(unreachable_ranks=(1,)))
        assert res.aborted is None
        count, at_risk = res.trace.summary()["faults.data_at_risk"]
        assert count == 1 and at_risk == n
        assert any(i.kind == "tcio.data_at_risk" for i in plan.injections)
        # the fallback writer's bytes win; the overlapped deposit is the loss
        assert res.pfs.lookup("f").contents()[off : off + n] == pattern(0, n)

    def test_fallback_over_a_written_back_range_is_not_at_risk(self):
        # As above, but the first flush is journaled: it writes rank 1's
        # deposit back, so the bytes rank 0's fallback later covers are
        # already in the file and nothing is at risk.
        off, n = SEGMENT, 32  # inside segment 1, owned by rank 1

        def main(env):
            journaled = replace(cfg(env.size), journal="epoch")
            fh = (yield from tcio_open(env, "f", TCIO_WRONLY, journaled))
            if env.rank == 1:
                (yield from tcio_write_at(fh, off, pattern(1, n)))
            (yield from fh.flush())  # journaled: segment 1 is written back
            d = fh.directory
            assert 1 in d.flushed and not d.flushed & set(d.deposited)
            if env.rank == 0:
                (yield from tcio_write_at(fh, off, pattern(0, n)))
            (yield from fh.flush())  # rank 0's push degrades over written-back bytes
            (yield from fh.close())

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res, plan = run(2, main, FaultSpec(unreachable_ranks=(1,)))
        assert res.aborted is None
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert res.trace.get("faults.data_at_risk").total == 0
        assert not any(i.kind == "tcio.data_at_risk" for i in plan.injections)
        assert any(what == "tcio.flush" for what, _ in plan.fallbacks)
        assert res.pfs.lookup("f").contents()[off : off + n] == pattern(0, n)
