"""The repo's reference benchmark: seven named workloads on two clocks.

Run one workload per fresh process::

    python3 -m benchmarks.e2e run --workload tcio-fine --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one profiled iteration. ``compare`` and ``selfcheck`` judge two
result sets against the bounds in ``BENCHMARK.json``. See ``README.md`` in
this directory for the metric glossary and the comparison procedure.
"""
