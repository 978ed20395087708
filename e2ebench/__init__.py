"""End-to-end benchmark for the serve path and the KV engine.

Run ``python3 e2ebench/run.py --help`` from the repository root; see
``e2ebench/README.md`` for the workloads and metrics.
"""
