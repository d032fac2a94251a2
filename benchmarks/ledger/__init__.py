"""Perf ledger: one five-workload benchmark with end-to-end headlines
and a per-layer wall-time budget (see README.md in this directory).

Self-contained: imports nothing from the legacy ``benchmarks/*.py``
harness and changes nothing under ``src/``.
"""
