"""Benchmark harness conventions.

Each benchmark here measures the reproduction itself and records its
numbers in a ``BENCH_*.json`` beside it; the paper's tables are pinned and
shape-checked in tier-1 (``tests/test_paper_artifacts.py``). Bench files do
not match pytest's ``test_*.py`` pattern, so name them:
``python -m pytest benchmarks/bench_*.py -q``.
"""

from __future__ import annotations


def pytest_configure(config):
    # Registered here (the only place the marker is used) so plain
    # `pytest` keeps running everything while `-m "not slow"` can deselect
    # the >30s benchmarks locally — including under --strict-markers.
    config.addinivalue_line(
        "markers",
        "slow: benchmark measurement taking >30s wall; deselect locally "
        'with -m "not slow"',
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
