"""A frame budget for the per-call TCIO path that host noise cannot touch.

Counts Python ``call`` events inside ``src/repro`` under ``sys.setprofile``
for two sizes of one Program-3 run and bounds the *marginal* frames per
extra application call. The wall-clock gate cannot see a 5 % creep; this
count repeats exactly, so a refactor that re-adds frames to
``write_at``/``read_at`` fails here first (15.1 before the flat path, 3.6
with it).
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
        method=Method.TCIO, nprocs=NPROCS, num_arrays=NUM_ARRAYS,
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


def test_marginal_frames_per_application_call():
    small, large = 256, 512
    extra_calls = (large - small) * NUM_ARRAYS * NPROCS * 2  # write_at + read_at
    marginal = (_frames(large) - _frames(small)) / extra_calls
    assert marginal <= 6.0, f"{marginal:.2f} frames per application call"
