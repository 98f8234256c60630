"""Benchmark of the lecollapse package: four workloads, one per core.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints one JSON line.
See ``perfbench/README.md`` for the workloads, ops, checks and metrics.
"""
