"""The repository's benchmark: seeded workloads, output checks and traced
per-layer runs.  Entry point: ``python3 perfbench/run.py``."""
