"""Frame budgets for the storage request path that host noise cannot touch.

Counts Python ``call`` events under ``sys.setprofile``; the counts repeat
exactly, so a full scan re-added to the lock table or a layer re-added to
the one-stripe request fails here even when the wall-clock gate cannot
see it. Two budgets:

* one acquire is work proportional to what it touches: with 2,000 cached
  grants on other stripes it enters ``Extent.overlaps`` at most 4 times
  (the linear table entered it twice per held grant), and it enters
  exactly as many frames as with 20;
* the marginal ``src/repro/pfs`` frames per independent one-stripe
  request of a 4-rank MPI-IO run are at most 16 (28.5 before the flat
  path, 15.0 with it).
"""

import os
import sys

import repro
from repro.bench.synthetic import BenchConfig, Method, run_benchmark
from repro.pfs.lockmgr import LockManager, LockMode
from repro.sim.engine import Engine
from repro.util.intervals import Extent

SRC = os.path.dirname(repro.__file__) + os.sep
PFS = os.path.join(SRC, "pfs") + os.sep
G = 64  # lock granularity


def _one_acquire(n_cached: int, extent: Extent, mode: LockMode) -> tuple[int, int]:
    """(``Extent.overlaps`` entries, ``src/repro`` frames) of one acquire
    by a new owner, after *n_cached* idle grants of six other owners, one
    per stripe, have been cached."""
    mgr = LockManager(G, contention_penalty=1e-6, audit=True)
    counts = {"overlaps": 0, "frames": 0}

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            counts["frames"] += 1
            if frame.f_code.co_name == "overlaps":
                counts["overlaps"] += 1

    def body():
        for i in range(n_cached):
            grant = yield from mgr.acquire(i % 6, LockMode.EXCLUSIVE, Extent(i * G, i * G + G))
            mgr.done(grant)
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            yield from mgr.acquire(99, mode, extent)
        finally:
            sys.setprofile(previous)

    engine = Engine()
    engine.spawn("p", body)
    engine.run()
    return counts["overlaps"], counts["frames"]


def test_one_acquire_ignores_grants_on_other_stripes():
    fresh = Extent(3_000 * G + 5, 3_000 * G + 9)  # a stripe nobody locked
    for extent, mode in (
        (fresh, LockMode.EXCLUSIVE),
        (Extent(7 * G, 9 * G), LockMode.EXCLUSIVE),  # revokes two idle grants
        (Extent(11 * G + 1, 11 * G + 2), LockMode.SHARED),  # revokes one
    ):
        overlaps, frames = _one_acquire(2_000, extent, mode)
        assert overlaps <= 4, f"{extent}: {overlaps} Extent.overlaps calls"
        assert (overlaps, frames) == _one_acquire(20, extent, mode), extent


def _pfs_frames(len_array: int) -> int:
    entered = 0

    def profiler(frame, event, _arg):
        nonlocal entered
        if event == "call" and frame.f_code.co_filename.startswith(PFS):
            entered += 1

    cfg = BenchConfig(
        method=Method.MPIIO, nprocs=4, num_arrays=2,
        type_codes="i,d", size_access=1, len_array=len_array,
    )
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = run_benchmark(cfg)
    finally:
        sys.setprofile(previous)
    assert not result.failed, result.fail_reason
    return entered


def test_marginal_pfs_frames_per_independent_request():
    small, large = 128, 256
    extra_requests = (large - small) * 2 * 4 * 2  # arrays x ranks x (write + read)
    marginal = (_pfs_frames(large) - _pfs_frames(small)) / extra_requests
    assert marginal <= 16.0, f"{marginal:.2f} pfs frames per request"
