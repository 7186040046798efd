"""PERF — hot-path wall-clock on the scalar path and the vector kernel.

Unlike the paper artifacts' checks, this one measures *wall-clock*. The
scalar macro leg runs the Table 5 end-to-end movie query (the unoptimized
Simple-join + Compare-sort plan and the optimized Filter + Smart 5x5 +
Rate plan) at 16x dataset scale; it is the budget the 256x vector leg must
meet. Scaled runs extend the posting deadline proportionally so every HIT
group completes (the 8-hour default would otherwise cut off the 16x group
mid-flight and change the workload).

Results land in ``benchmarks/BENCH_perf_hotpath.json``. The
before/after speedups this benchmark used to measure against the retired
``REPRO_FASTPATH=0`` reference implementations are frozen there under
``retired_reference``; the file keeps that key when it is re-recorded.

The vector legs extend the macro sweep to 64x and 256x under the
``REPRO_VECTOR`` numpy kernel, against the scalar path at the same
scale. They run the *optimized* Table 5 variant only: the unoptimized
compare-sort plan is quadratic in scale and exists to price the paper's
baseline, not to carry the 256x stress run. The headline bar is that the
256x vectorized run completes within the 16x scalar macro budget —
a 16x scale increase at no wall-clock cost. With numpy absent the vector
legs are skipped and the recorded JSON simply omits them.

Workload counts are pinned within 2% across determinism domains (see
``_measure_vector``); the full bit-identical vote-stream contract lives in
``tests/test_determinism_trace.py``.
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
from repro.util.toggles import VECTOR

# The whole module rides on one >30s measurement fixture (the vector and
# macro legs); the registered `slow` marker lets tier-1 deselect it locally
# with -m "not slow" without changing default runs.
pytestmark = pytest.mark.slow

RESULTS_PATH = Path(__file__).parent / "BENCH_perf_hotpath.json"

MACRO_SCALE = 16

# Scalar vs REPRO_VECTOR legs (optimized variant only; see module
# docstring). The 4x leg doubles as the baseline for the CI wall-ratio
# guard in scripts/profile_hotpath.py --check.
VECTOR_SCALES = (4, 64, 256)
VECTOR_COUNT_TOLERANCE = 0.02


# -- macro workload: Table 5 end-to-end -------------------------------------


def _run_table5_variant(scale: int, variant: str, seed: int = 0) -> tuple[int, int]:
    """One headline Table 5 plan end-to-end; returns (hits, assignments)."""
    data = movie_dataset(seed=seed, scale=scale)
    latency = LatencyModel(LatencyConfig(deadline_hours=8.0 * scale))
    market = SimulatedMarketplace(data.truth, seed=seed, latency=latency)
    if variant == "unoptimized":
        config = ExecutionConfig(
            join_interface=JoinInterface.SIMPLE,
            use_feature_filters=False,
            sort_method="compare",
            compare_group_size=5,
        )
        query = QUERY_NO_FILTER
    else:
        config = ExecutionConfig(
            join_interface=JoinInterface.SMART,
            grid_rows=5,
            grid_cols=5,
            use_feature_filters=True,
            generative_batch_size=5,
            sort_method="rate",
            compare_group_size=5,
            rate_batch_size=5,
        )
        query = QUERY_WITH_FILTER
    engine = Qurk(platform=market, config=config)
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    engine.execute(query)
    return engine.ledger.total_hits, market.stats.assignments_completed


def _measure_macro(scale: int) -> dict:
    start = time.perf_counter()
    hits_a, asn_a = _run_table5_variant(scale, "unoptimized")
    hits_b, asn_b = _run_table5_variant(scale, "optimized")
    return {
        "hits": hits_a + hits_b,
        "assignments": asn_a + asn_b,
        "seconds": round(time.perf_counter() - start, 3),
    }


def _measure_vector(scale: int) -> dict:
    """Scalar path vs vector-kernel wall clock at one macro scale.

    The vector leg forces ``REPRO_VECTOR``. The two determinism domains
    draw different answers, and answer-dependent feature filtering then
    shifts the posted workload slightly (~0.2% at 256x), so counts are
    pinned within ``VECTOR_COUNT_TOLERANCE`` rather than bit-equal.
    """
    counts: dict[str, tuple[int, int]] = {}
    timings: dict[str, float] = {}
    # Small-scale legs are fractions of a second, and the 4x ratio is the
    # CI guard's baseline — best-of keeps it off the noise floor.
    repeats = 3 if scale < 64 else 1
    for label, vector_on in (("fast", False), ("vector", True)):
        with VECTOR.forced(vector_on):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                counts[label] = _run_table5_variant(scale, "optimized")
                best = min(best, time.perf_counter() - start)
            timings[label] = best
    for fast_count, vector_count in zip(counts["fast"], counts["vector"]):
        assert abs(vector_count - fast_count) <= max(
            2, VECTOR_COUNT_TOLERANCE * fast_count
        ), counts
    return {
        "hits": counts["vector"][0],
        "assignments": counts["vector"][1],
        "fast_seconds": round(timings["fast"], 3),
        "vector_seconds": round(timings["vector"], 3),
        "ratio": round(timings["vector"] / timings["fast"], 3),
    }


# -- the benchmark ----------------------------------------------------------


@pytest.fixture(scope="module")
def results() -> dict:
    macro = {f"scale_{MACRO_SCALE}x": _measure_macro(MACRO_SCALE)}
    payload = {
        "benchmark": "perf_hotpath",
        "modes": {
            "scalar": "scalar dispatch path (default)",
            "vector": "REPRO_VECTOR=1 (numpy batch dispatch kernel)",
        },
        "macro": macro,
    }
    if VECTOR.available():
        payload["vector_macro"] = {
            f"scale_{scale}x": _measure_vector(scale) for scale in VECTOR_SCALES
        }
    if RESULTS_PATH.exists():
        retired = json.loads(RESULTS_PATH.read_text()).get("retired_reference")
        if retired is not None:
            payload["retired_reference"] = retired
    RESULTS_PATH.write_text(json.dumps(payload, indent=1))
    return payload


def test_vector_macro_beats_scalar_at_scale(results):
    """The kernel's batching must pay off where it matters: at 64x and
    256x the vector leg beats the scalar path outright."""
    if "vector_macro" not in results:
        pytest.skip("numpy not installed; vector legs not measured")
    print()
    print(json.dumps(results["vector_macro"], indent=1))
    for scale in (64, 256):
        row = results["vector_macro"][f"scale_{scale}x"]
        assert row["ratio"] < 1.0, (scale, row)


def test_vector_256x_within_16x_scalar_budget(results):
    """The headline bar: the 256x macro under REPRO_VECTOR=1 completes
    within the 16x scalar wall clock — 16x more simulated marketplace for
    the same waiting."""
    if "vector_macro" not in results:
        pytest.skip("numpy not installed; vector legs not measured")
    vector_256 = results["vector_macro"]["scale_256x"]["vector_seconds"]
    scalar_16 = results["macro"]["scale_16x"]["seconds"]
    assert vector_256 <= scalar_16, (vector_256, scalar_16)


def test_results_recorded(results):
    print()
    print(json.dumps(results["macro"], indent=1))
    recorded = json.loads(RESULTS_PATH.read_text())
    assert recorded["macro"]["scale_16x"]["seconds"] > 0
    if "vector_macro" in recorded:
        assert recorded["vector_macro"]["scale_256x"]["vector_seconds"] > 0
