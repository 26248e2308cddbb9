"""A frame budget for the collective planning path that host noise cannot touch.

Counts Python ``call`` events inside ``src/repro`` under ``sys.setprofile``
for two sizes of one Program-2 run (file view + ``write_all`` +
``read_all``) and bounds the *marginal* frames per extra file piece. The
planner describes an access whole, as arrays, so a piece costs no frame of
its own; a refactor that walks pieces one Python call at a time again —
an ``Extent`` per piece, a generator step per piece — fails here first
(12.7 with the scalar planner; 0.2 with the array one, all of it the extra
messages and PFS requests of the larger file).
"""

import os
import sys

import repro
from repro.bench.synthetic import BenchConfig, Method, run_benchmark

SRC = os.path.dirname(repro.__file__) + os.sep
NPROCS, NUM_ARRAYS = 8, 2


def _frames(len_array: int) -> int:
    entered = 0

    def profiler(frame, event, _arg):
        nonlocal entered
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            entered += 1

    cfg = BenchConfig(
        method=Method.OCIO, nprocs=NPROCS, num_arrays=NUM_ARRAYS,
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


def test_marginal_frames_per_file_piece():
    small, large = 512, 1024
    # one piece per element block of the view, mapped once by write_all and
    # once by read_all on every rank
    extra_pieces = (large - small) * NPROCS * 2
    marginal = (_frames(large) - _frames(small)) / extra_pieces
    assert marginal <= 0.5, f"{marginal:.2f} frames per file piece"
