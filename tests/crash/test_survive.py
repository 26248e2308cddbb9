"""Survive-and-complete fault tolerance: the TCIO survivor flush.

With ``TcioConfig.ft`` on, a rank death mid-protocol must not abort the
job: the survivors shrink, re-partition the level-2 file domain, replay
the dead rank's committed journal records, and complete the flush. The
differential flips against the abort-and-recover matrix — the run
*completes* (``aborted is None``), the surviving ranks' bytes are
identical to the crash-free run, and fsck is clean with no offline
recovery pass at all.
"""

from __future__ import annotations

import pytest

from repro.crash import fsck
from repro.crash.harness import (
    PER_RANK,
    STEPS,
    _pattern,
    crash_free_reference,
    run_cell,
)


@pytest.fixture(scope="module")
def reference() -> bytes:
    return crash_free_reference(aggregation="flat", nranks=4, cores_per_node=2)


class TestSurviveCells:
    @pytest.mark.parametrize("step", STEPS)
    def test_every_step_survives(self, step, reference):
        cell = run_cell(step, survive=True, reference=reference)
        assert cell.ok, cell.summary()
        assert not cell.aborted  # the whole point: the job completed
        assert cell.fsck is not None and cell.fsck.clean

    def test_post_commit_loses_nothing(self, reference):
        # The victim's epoch-2 records were committed before it died, so
        # the survivors replay them: full byte-identity, zero loss.
        cell = run_cell("post-commit", survive=True, reference=reference)
        assert cell.ok, cell.summary()
        assert "0b of the victim's uncommitted data lost" in cell.detail

    def test_loss_is_bounded_to_the_victims_region(self, reference):
        # Even at the worst step (pre-deposit: the victim's level-1 data
        # never reached anyone), loss stays within one rank-region.
        cell = run_cell("pre-deposit", survive=True, reference=reference)
        assert cell.ok, cell.summary()
        assert cell.fsck.lost_bytes <= PER_RANK


class TestSurvivorFlushByHand:
    """Direct (non-harness) runs pinning the mechanism itself."""

    def _run(self, step, *, nranks=4, seed=7, victim=1):
        from dataclasses import replace

        from repro.crash.harness import _make_config, _run
        from repro.faults import FaultPlan, FaultSpec

        config = replace(_make_config(nranks, "epoch", "flat"), ft=True)
        count = FaultPlan(FaultSpec(), seed, scope="crash-count")
        _run("count.dat", config, nranks, 2, faults=count)
        hits = count.step_hits[(step, victim)]
        assert hits > 0
        spec = FaultSpec(crash_rank=victim, crash_step=step, crash_after=hits)
        plan = FaultPlan(spec, seed, scope="crash")
        return _run("survive.dat", config, nranks, 2, faults=plan)

    def test_completed_run_reports_no_abort(self):
        result = self._run("post-deposit")
        assert result.aborted is None
        assert result.dead_ranks == {1}

    def test_no_offline_recovery_needed(self):
        # fsck of the as-left image (no recover() call) must be clean:
        # the survivor flush already produced a consistent committed image.
        result = self._run("mid-flush")
        assert result.aborted is None
        report = fsck(result.pfs, "survive.dat")
        assert report.clean, report.summary()

    def test_survive_round_is_traced(self):
        result = self._run("pre-commit")
        assert result.aborted is None
        assert result.trace.get("tcio.ft.survives").total >= 1

    def test_same_seed_same_survival(self):
        def once():
            result = self._run("post-deposit")
            return (
                result.aborted is None,
                result.dead_ranks,
                result.pfs.lookup("survive.dat").contents(),
            )

        assert once() == once()

    def test_ft_requires_epoch_journal(self):
        from repro.tcio import TcioConfig
        from repro.util.errors import TcioError

        with pytest.raises(TcioError):
            TcioConfig(ft=True, journal="off").validate()
        with pytest.raises(TcioError):
            TcioConfig(ft=True, journal="epoch", aggregation="node").validate()


class TestWrittenBackSegmentSurvivesRound:
    """A survive round must keep segments an earlier epoch wrote back.

    Segments here are wider than an epoch's region, so epoch 2 re-dirties
    the segment epoch 1 already wrote back. The survivor partition is
    rebuilt after that write-back; if it came back zeroed, epoch 2's
    whole-slot write-back would overwrite epoch 1's committed bytes.
    """

    NRANKS, PER, VICTIM = 4, 32, 1  # segment 0's owner, rank 0, survives

    def _main(self, config):
        from repro.tcio import TCIO_WRONLY, TcioFile

        n, per = self.NRANKS, self.PER

        def main(env):
            fh = yield from TcioFile.open(env, "wide.dat", TCIO_WRONLY, config)
            yield from fh.write_at(env.rank * per, _pattern(env.rank, 1, per))
            yield from fh.flush()  # epoch 1: part of segment 0
            yield from fh.ft_join_recovery()  # the delegates' pattern
            yield from fh.write_at(n * per + env.rank * per, _pattern(env.rank, 2, per))
            yield from fh.close()  # epoch 2: the rest of segment 0

        return main

    def test_epoch_one_bytes_survive(self):
        from repro.experiments.topo_ablation import ablation_cluster
        from repro.faults import FaultPlan, FaultSpec
        from repro.simmpi import run_mpi
        from repro.tcio import TcioConfig

        n, per, victim = self.NRANKS, self.PER, self.VICTIM
        seg = 1024  # one segment holds both epochs' regions
        config = TcioConfig(segment_size=seg, segments_per_process=1, journal="epoch", ft=True)
        spec = FaultSpec(crash_rank=victim, crash_step="post-commit", crash_after=1)
        result = run_mpi(
            n,
            self._main(config),
            cluster=ablation_cluster(n, 2),
            faults=FaultPlan(spec, 7, scope="crash"),
        )
        assert result.aborted is None
        assert result.dead_ranks == {victim}
        assert result.trace.get("tcio.ft.survives").total >= 1
        image = result.pfs.lookup("wide.dat").contents()
        # Epoch 1 committed before the victim died: every rank's bytes.
        epoch1 = b"".join(_pattern(r, 1, per) for r in range(n))
        assert image[: n * per] == epoch1
        # Epoch 2: the survivors' bytes; the victim never wrote its slot.
        for r in range(n):
            lo = n * per + r * per
            want = bytes(per) if r == victim else _pattern(r, 2, per)
            assert image[lo : lo + per] == want, f"rank {r}'s epoch-2 bytes"
        report = fsck(result.pfs, "wide.dat")
        assert report.clean, report.summary()
