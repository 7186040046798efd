"""PERF — the pipelined executor's end-to-end latency evidence.

The §2.6 claim: running operators concurrently with async queues lets HIT
batches from different operators overlap on the marketplace, cutting
end-to-end latency without changing what the crowd is asked. This benchmark
runs the Table 5 movie workload (both headline plans) once each at
1x/4x/16x dataset scale and records, per scale:

* **virtual latency** — the query's makespan on the simulated marketplace
  clock, the number a requester actually waits on;
* **serial latency** — the sum of every HIT group's own post-to-finish
  interval (``pipeline_summary["serial_latency_seconds"]``): what the same
  postings take on a platform that cannot overlap them, where each group
  waits for the one before;
* **virtual speedup** — serial latency over makespan; overlap must win at
  every scale;
* **HIT/assignment counts, rows, and wall-clock**, for reference. That a
  blocking platform asks the crowd exactly the same questions is pinned in
  tier-1 (``tests/test_scheduler.py``).

Results land in ``benchmarks/BENCH_pipeline.json``. Scaled runs extend the
posting deadline proportionally, like ``bench_perf_hotpath.py``, so every
HIT group completes at 16x.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.crowd import SimulatedMarketplace
from repro.crowd.latency import LatencyConfig, LatencyModel
from repro.datasets.movie import movie_dataset
from repro.experiments.end_to_end import QUERY_NO_FILTER, QUERY_WITH_FILTER
from repro.joins.batching import JoinInterface

# The whole module rides on one >30s measurement fixture
# (test_pipeline_cuts_virtual_latency_at_16x et al.); the registered
# `slow` marker lets tier-1 deselect it locally with -m "not slow"
# without changing default runs.
pytestmark = pytest.mark.slow

RESULTS_PATH = Path(__file__).parent / "BENCH_pipeline.json"

MACRO_SCALES = (1, 4, 16)
VARIANTS = ("unoptimized", "optimized")


def _variant_config(variant: str) -> tuple[ExecutionConfig, str]:
    if variant == "unoptimized":
        return (
            ExecutionConfig(
                join_interface=JoinInterface.SIMPLE,
                use_feature_filters=False,
                sort_method="compare",
                compare_group_size=5,
            ),
            QUERY_NO_FILTER,
        )
    return (
        ExecutionConfig(
            join_interface=JoinInterface.SMART,
            grid_rows=5,
            grid_cols=5,
            use_feature_filters=True,
            generative_batch_size=5,
            sort_method="rate",
            compare_group_size=5,
            rate_batch_size=5,
        ),
        QUERY_WITH_FILTER,
    )


def _run_variant(scale: int, variant: str, seed: int = 0) -> dict:
    """One Table 5 plan end to end; returns counts and virtual latencies."""
    data = movie_dataset(seed=seed, scale=scale)
    latency = LatencyModel(LatencyConfig(deadline_hours=8.0 * scale))
    market = SimulatedMarketplace(data.truth, seed=seed, latency=latency)
    config, query = _variant_config(variant)
    engine = Qurk(platform=market, config=config)
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    result = engine.execute(query)
    summary = result.pipeline_summary
    return {
        "hits": engine.ledger.total_hits,
        "assignments": engine.ledger.total_assignments,
        "makespan_seconds": summary["makespan_seconds"],
        "serial_latency_seconds": summary["serial_latency_seconds"],
        "rows": len(result),
        "peak_outstanding_groups": market.stats.peak_outstanding_groups,
    }


def measure_scale(scale: int) -> dict:
    """Both plans at one dataset scale."""
    start = time.perf_counter()
    runs = {variant: _run_variant(scale, variant) for variant in VARIANTS}
    wall = time.perf_counter() - start
    return {
        "wall_seconds": round(wall, 3),
        "virtual_seconds": {
            variant: round(run["makespan_seconds"], 1) for variant, run in runs.items()
        },
        "serial_latency_seconds": {
            variant: round(run["serial_latency_seconds"], 1)
            for variant, run in runs.items()
        },
        "virtual_speedup": {
            variant: round(run["serial_latency_seconds"] / run["makespan_seconds"], 3)
            for variant, run in runs.items()
        },
        "hits": sum(run["hits"] for run in runs.values()),
        "assignments": sum(run["assignments"] for run in runs.values()),
        "rows": [runs[variant]["rows"] for variant in VARIANTS],
        "peak_outstanding_groups": max(
            run["peak_outstanding_groups"] for run in runs.values()
        ),
    }


@pytest.fixture(scope="module")
def results() -> dict:
    payload = {
        "benchmark": "pipeline",
        "speedup_definition": "serial_latency_seconds / virtual_seconds (makespan)",
        "macro": {f"scale_{scale}x": measure_scale(scale) for scale in MACRO_SCALES},
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=1))
    return payload


def test_pipeline_cuts_virtual_latency_at_16x(results):
    print()
    print(json.dumps(results["macro"], indent=1))
    row = results["macro"]["scale_16x"]
    for variant in VARIANTS:
        assert row["virtual_speedup"][variant] > 1.0, row
    # Overlap requires outstanding groups; the scheduler must actually
    # have had several in flight.
    assert row["peak_outstanding_groups"] >= 2, row


def test_pipeline_latency_win_at_every_scale(results):
    for scale in MACRO_SCALES:
        row = results["macro"][f"scale_{scale}x"]
        assert row["virtual_speedup"]["optimized"] > 1.0, (scale, row)


def test_results_recorded(results):
    recorded = json.loads(RESULTS_PATH.read_text())
    assert recorded["macro"]["scale_16x"]["virtual_speedup"]["optimized"] > 1.0
