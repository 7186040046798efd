"""PERF — the pipelined executor's end-to-end latency evidence.

The §2.6 claim: running operators concurrently with async queues lets HIT
batches from different operators overlap on the marketplace, cutting
end-to-end latency without changing what the crowd is asked. This benchmark
runs the Table 5 movie workload (both headline plans) at 1x/4x/16x dataset
scale under the pipelined executor and the depth-first interpreter (the
same marketplace behind :class:`~repro.experiments.harness.BlockingPlatform`)
and records, per scale:

* **virtual latency** — the simulated marketplace clock at completion, the
  number a requester actually waits on; the pipelined executor must beat
  the depth-first interpreter on the 16x macro workload;
* **HIT/assignment counts** — asserted *identical* across executors (the
  determinism contract: pipelining is latency-only);
* **wall-clock** — the scheduler's bookkeeping overhead; the pipelined
  executor must stay within 5% of the depth-first interpreter (the same
  bound ``scripts/profile_hotpath.py --check`` enforces in CI).

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
from repro.experiments.harness import BlockingPlatform
from repro.joins.batching import JoinInterface

# The whole module rides on one >30s measurement fixture
# (test_pipeline_cuts_virtual_latency_at_16x et al.); the registered
# `slow` marker lets tier-1 deselect it locally with -m "not slow"
# without changing default runs.
pytestmark = pytest.mark.slow

RESULTS_PATH = Path(__file__).parent / "BENCH_pipeline.json"

MACRO_SCALES = (1, 4, 16)
WALL_CLOCK_OVERHEAD_LIMIT = 1.05


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


def _run_variant(scale: int, variant: str, pipelined: bool, seed: int = 0) -> dict:
    """One Table 5 plan end to end; returns counts and the virtual clock."""
    data = movie_dataset(seed=seed, scale=scale)
    latency = LatencyModel(LatencyConfig(deadline_hours=8.0 * scale))
    market = SimulatedMarketplace(data.truth, seed=seed, latency=latency)
    config, query = _variant_config(variant)
    platform = market if pipelined else BlockingPlatform(market)
    engine = Qurk(platform=platform, config=config)
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    result = engine.execute(query)
    return {
        "hits": engine.ledger.total_hits,
        "assignments": engine.ledger.total_assignments,
        "virtual_seconds": market.clock_seconds,
        "rows": len(result),
        "peak_outstanding_groups": market.stats.peak_outstanding_groups,
    }


def measure_scale(scale: int, repeats: int = 2) -> dict:
    """Both plans, both executors, at one dataset scale."""
    row: dict[str, dict] = {}
    for pipelined, label in ((True, "pipelined"), (False, "depth_first")):
        best_wall = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            unopt = _run_variant(scale, "unoptimized", pipelined)
            opt = _run_variant(scale, "optimized", pipelined)
            best_wall = min(best_wall, time.perf_counter() - start)
        row[label] = {
            "wall_seconds": round(best_wall, 3),
            "virtual_seconds": {
                "unoptimized": round(unopt["virtual_seconds"], 1),
                "optimized": round(opt["virtual_seconds"], 1),
            },
            "hits": unopt["hits"] + opt["hits"],
            "assignments": unopt["assignments"] + opt["assignments"],
            "rows": (unopt["rows"], opt["rows"]),
            "peak_outstanding_groups": max(
                unopt["peak_outstanding_groups"], opt["peak_outstanding_groups"]
            ),
        }
    pipelined, depth_first = row["pipelined"], row["depth_first"]
    # Pipelining is latency-only: the simulated workload must be identical.
    assert pipelined["hits"] == depth_first["hits"], row
    assert pipelined["assignments"] == depth_first["assignments"], row
    assert pipelined["rows"] == depth_first["rows"], row
    virtual_speedup = {
        variant: round(
            depth_first["virtual_seconds"][variant]
            / pipelined["virtual_seconds"][variant],
            3,
        )
        for variant in ("unoptimized", "optimized")
    }
    return {
        "pipelined": pipelined,
        "depth_first": depth_first,
        "virtual_speedup": virtual_speedup,
        "wall_overhead": round(
            pipelined["wall_seconds"] / depth_first["wall_seconds"], 3
        )
        if depth_first["wall_seconds"] > 0
        else 0.0,
    }


@pytest.fixture(scope="module")
def results() -> dict:
    macro = {
        f"scale_{scale}x": measure_scale(scale, repeats=2 if scale < 16 else 1)
        for scale in MACRO_SCALES
    }
    payload = {
        "benchmark": "pipeline",
        "modes": {
            "pipelined": "event-driven executor (any overlap-capable platform)",
            "depth_first": "depth-first interpreter (marketplace behind BlockingPlatform)",
        },
        "wall_clock_overhead_limit": WALL_CLOCK_OVERHEAD_LIMIT,
        "macro": macro,
    }
    existing = {}
    if RESULTS_PATH.exists():
        existing = json.loads(RESULTS_PATH.read_text())
    existing.update(payload)
    RESULTS_PATH.write_text(json.dumps(existing, indent=1))
    return payload


def test_pipeline_cuts_virtual_latency_at_16x(results):
    print()
    print(json.dumps(results["macro"], indent=1))
    row = results["macro"]["scale_16x"]
    for variant in ("unoptimized", "optimized"):
        assert row["virtual_speedup"][variant] > 1.0, row
    # Overlap requires outstanding groups; the scheduler must actually
    # have had several in flight.
    assert row["pipelined"]["peak_outstanding_groups"] >= 2, row


def test_pipeline_latency_win_at_every_scale(results):
    for scale in MACRO_SCALES:
        row = results["macro"][f"scale_{scale}x"]
        assert row["virtual_speedup"]["optimized"] > 1.0, (scale, row)


def test_results_recorded(results):
    recorded = json.loads(RESULTS_PATH.read_text())
    assert recorded["macro"]["scale_16x"]["virtual_speedup"]["optimized"] > 1.0
