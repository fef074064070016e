"""Benchmark of the codemap pipeline; see perfbench/run.py."""
