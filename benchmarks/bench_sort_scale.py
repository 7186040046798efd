"""PERF — the scale-out sort engine's end-to-end evidence.

Two claims on the scalable squares workload
(``repro.experiments.sort_workload``):

1. **graph_order growth.** Building the comparison graph, breaking its
   planted cycles, and topologically sorting N ∈ {40, 200, 1000} squares
   must scale gently: CPU time at N=1000 divided by CPU time at N=200 (a
   5x item step, ~5.2x more voted pairs) must stay at or below
   ``MAX_GROWTH_1000_OVER_200`` = 10. Incremental per-component SCC
   recomputation, per-component victim scans, and a heap-based Kahn sort
   recorded 6.2x; the retired full-Tarjan sweep recorded 24.8x (frozen
   under ``retired_reference`` in ``BENCH_sort.json``). Equivalence to the
   textbook algorithms is pinned by ``tests/test_sort_scale.py``.
2. **LIMIT tournament HIT reduction.** ``ORDER BY rank(...) DESC LIMIT 5``
   on the steep-latent squares setup must spend materially fewer crowd
   HITs through the successive best-of-batch tournament path than the full
   C(N, 2) Compare coverage (``limit_sort_tournament=False``), at N ≥ 200,
   while returning the identical leading rows.

Results land in ``benchmarks/BENCH_sort.json``; ``scripts/profile_hotpath.py
--check`` guards the recorded growth ratio against regression.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.crowd import SimulatedMarketplace
from repro.experiments.sort_workload import (
    SCALES,
    comparison_corpus,
    limit_sort_setup,
)
from repro.sorting.graph import ComparisonGraph, break_cycles, graph_order

RESULTS_PATH = Path(__file__).parent / "BENCH_sort.json"

MAX_GROWTH_1000_OVER_200 = 10.0
LIMIT_N = 200
LIMIT_K = 5
LIMIT_QUERY = (
    f"SELECT squares.label FROM squares "
    f"ORDER BY squareSorter(img) DESC LIMIT {LIMIT_K}"
)


def _best_of(thunk, repeats: int) -> float:
    """Best-of CPU seconds with the GC paused (same hygiene as
    ``scripts/profile_hotpath.py``: process time is immune to preemption,
    GC pauses are bimodal noise bigger than the margins measured here)."""
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            gc.collect()
            start = time.process_time()
            thunk()
            best = min(best, time.process_time() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def measure_graph_order(n: int, seed: int = 0, repeats: int = 3) -> dict:
    items, corpus = comparison_corpus(n, seed=seed)
    seconds = _best_of(lambda: graph_order(items, corpus), repeats)
    removed = break_cycles(ComparisonGraph.from_votes(items, corpus))
    return {
        "items": n,
        "pairs": len(corpus),
        "edges_removed": len(removed),
        "seconds": round(seconds, 5),
    }


def run_limit_query(tournament: bool, n: int, seed: int = 0) -> dict:
    data = limit_sort_setup(n, seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed)
    config = ExecutionConfig(sort_method="compare", limit_sort_tournament=tournament)
    engine = Qurk(platform=market, config=config)
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    start = time.perf_counter()
    result = engine.execute(LIMIT_QUERY)
    wall = time.perf_counter() - start
    return {
        "hits": result.hit_count,
        "assignments": result.assignment_count,
        "cost": round(result.total_cost, 2),
        "wall_seconds": round(wall, 4),
        "rows": result.column("squares.label"),
    }


def measure_limit_path(n: int, seed: int = 0) -> dict:
    full = run_limit_query(False, n, seed=seed)
    tournament = run_limit_query(True, n, seed=seed)
    assert tournament["rows"] == full["rows"], (tournament, full)
    return {
        "items": n,
        "k": LIMIT_K,
        "query": LIMIT_QUERY,
        "full_sort": {key: full[key] for key in ("hits", "assignments", "cost")},
        "tournament": {
            key: tournament[key] for key in ("hits", "assignments", "cost")
        },
        "hit_reduction": round(full["hits"] / tournament["hits"], 2)
        if tournament["hits"]
        else 0.0,
        "rows_identical": True,
        "rows": full["rows"],
    }


@pytest.fixture(scope="module")
def results() -> dict:
    graph_rows = {
        str(40 * scale): measure_graph_order(40 * scale) for scale in SCALES
    }
    growth = graph_rows["1000"]["seconds"] / graph_rows["200"]["seconds"]
    payload = {
        "benchmark": "sort_scale",
        "workload": "repro.experiments.sort_workload (planted-cycle squares corpora)",
        "max_growth_1000_over_200": MAX_GROWTH_1000_OVER_200,
        "graph_order": graph_rows,
        "growth_1000_over_200": round(growth, 2),
        "limit_path": {str(LIMIT_N): measure_limit_path(LIMIT_N)},
    }
    existing = {}
    if RESULTS_PATH.exists():
        existing = json.loads(RESULTS_PATH.read_text())
    existing.update(payload)
    RESULTS_PATH.write_text(json.dumps(existing, indent=1))
    return payload


def test_graph_order_growth_at_1000(results):
    print()
    print(json.dumps(results["graph_order"], indent=1))
    growth = results["growth_1000_over_200"]
    assert growth <= MAX_GROWTH_1000_OVER_200, results["graph_order"]


def test_graph_order_breaks_cycles_at_every_scale(results):
    for n, row in results["graph_order"].items():
        assert row["edges_removed"] > 0, n  # the workload actually plants cycles


def test_limit_path_cuts_hits(results):
    row = results["limit_path"][str(LIMIT_N)]
    print()
    print(json.dumps(row, indent=1))
    assert row["rows_identical"], row
    assert row["tournament"]["hits"] < row["full_sort"]["hits"], row
    # O(N·k/b) vs O(N²/b²): at N=200, k=5 the tournament should be several
    # times cheaper, not marginally.
    assert row["hit_reduction"] >= 3.0, row


def test_results_recorded(results):
    recorded = json.loads(RESULTS_PATH.read_text())
    assert recorded["growth_1000_over_200"] <= MAX_GROWTH_1000_OVER_200
    assert recorded["limit_path"][str(LIMIT_N)]["rows_identical"]
