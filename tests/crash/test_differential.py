"""The crash-step differential matrix (the PR's acceptance criterion).

For every protocol step × aggregation mode: kill rank 1 at the *last*
occurrence of the step (aimed by a crash-free counting run), recover the
surviving PFS image, and require it byte-identical to the crash-free
reference truncated to the last committed epoch — plus a clean fsck
(zero torn, zero untracked bytes). The ``journal="off"`` control cell
must *detect* its losses instead.
"""

from __future__ import annotations

import pytest

from repro.crash import STEPS
from repro.crash.harness import (
    PER_RANK,
    ROLLBACK_STEPS,
    crash_free_reference,
    run_cell,
)

NRANKS = 4


@pytest.fixture(scope="module")
def references():
    return {
        mode: crash_free_reference(aggregation=mode, nranks=NRANKS)
        for mode in ("flat", "node")
    }


@pytest.mark.parametrize("mode", ["flat", "node"])
@pytest.mark.parametrize("step", STEPS)
def test_crash_matrix_cell(step, mode, references):
    cell = run_cell(
        step, aggregation=mode, nranks=NRANKS, reference=references[mode]
    )
    assert cell.aborted, f"{step}/{mode}: job must abort on the crash"
    assert cell.ok, cell.summary()
    assert cell.fsck is not None and cell.fsck.clean
    assert cell.fsck.torn_bytes == 0 and cell.fsck.untracked_bytes == 0
    if step in ROLLBACK_STEPS:
        assert cell.recovery.committed_epoch == 1
        assert cell.fsck.eof == NRANKS * PER_RANK
    else:
        assert cell.recovery.committed_epoch == 2
        assert cell.fsck.eof == 2 * NRANKS * PER_RANK


def test_rollback_steps_cover_everything_but_post_commit():
    assert set(STEPS) - set(ROLLBACK_STEPS) == {"post-commit"}


def test_journal_off_crash_loses_bytes_and_fsck_reports_them():
    cell = run_cell("post-deposit", journal="off", nranks=NRANKS)
    assert cell.aborted
    assert cell.ok, cell.summary()
    assert cell.fsck.lost_bytes > 0
    assert cell.fsck.lost_extents  # attributable, not just a number


def test_recovery_is_idempotent_and_safe_on_clean_files():
    cell = run_cell("post-commit", nranks=NRANKS)
    assert cell.ok, cell.summary()
    # the harness already recovered once inside the cell; the reports
    # prove a committed epoch and a clean classification
    assert cell.recovery.replayed_records > 0
    assert cell.fsck.committed_bytes == cell.fsck.eof


def test_recover_second_pass_is_a_noop():
    # Failover retry paths may call recover() again on a file a first
    # pass already repaired; the second pass must not touch a byte.
    from repro.crash import recover
    from repro.crash.harness import _make_config, _run
    from repro.faults import FaultPlan, FaultSpec

    name = "crash.dat"
    config = _make_config(NRANKS, "epoch", "flat")
    count = FaultPlan(FaultSpec(), 7, scope="crash-count")
    _run("count.dat", config, NRANKS, 2, faults=count)
    hits = count.step_hits[("mid-flush", 1)]
    plan = FaultPlan(
        FaultSpec(crash_rank=1, crash_step="mid-flush", crash_after=hits),
        7, scope="crash",
    )
    result = _run(name, config, NRANKS, 2, faults=plan)
    assert result.aborted is not None
    first = recover(result.pfs, name)
    assert first.replayed_records > 0
    assert result.pfs.lookup(name).size == first.eof
    image = result.pfs.lookup(name).contents()
    second = recover(result.pfs, name)
    assert second.written_bytes == 0
    assert second.replayed_records == first.replayed_records
    assert result.pfs.lookup(name).contents() == image


def test_recover_after_clean_shutdown_is_a_noop():
    # Write-through plus commit-before-ack means a cleanly closed file
    # already matches its journals; recovery must verify, not rewrite.
    from repro.crash import recover
    from repro.crash.harness import _make_config, _run

    config = _make_config(NRANKS, "epoch", "flat")
    result = _run("clean.dat", config, NRANKS, 2)
    assert result.aborted is None
    image = result.pfs.lookup("clean.dat").contents()
    report = recover(result.pfs, "clean.dat")
    assert report.written_bytes == 0
    assert result.pfs.lookup("clean.dat").contents() == image


def test_references_identical_across_modes(references):
    # aggregation is a transport choice; file bytes must not depend on it
    assert references["flat"] == references["node"]
    assert len(references["flat"]) == 2 * NRANKS * PER_RANK
