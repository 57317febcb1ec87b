"""Differential oracles: slow, independent reimplementations for tests.

Benchmarks import them too (``benchmarks/bench_faults.py``); nothing under
``src/`` does.
"""
