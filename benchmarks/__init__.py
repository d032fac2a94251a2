"""Benchmarks: the perf ledger (``python -m benchmarks.ledger``)."""
