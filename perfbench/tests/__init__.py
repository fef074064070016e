"""Tests of the benchmark itself; run with `python -m pytest perfbench/tests`."""
