"""The host-speed yardstick of the reference benchmark.

``benchmarks/e2e`` records :func:`calibrate` with every run
(``calibrate_s``) so two result files from hosts of different speeds can
be told apart; the benchmark itself, its workloads and its comparison
live there (``benchmarks/e2e/README.md``).
"""

from __future__ import annotations

import time


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload (host-speed yardstick)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i % 7
    items = [str(i) for i in range(50_000)]
    acc += len("".join(items))
    assert acc > 0
    return time.perf_counter() - t0
