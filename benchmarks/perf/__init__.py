"""The repo benchmark: five named workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root declares what this package measures;
``run.py`` runs one workload once (the driver's entry point) and
``python -m benchmarks.perf`` runs full sets.  See ``README.md``.
"""
