"""PERF — the cost-based adaptive re-optimizer's HIT-economy evidence.

The claim: on a Table-5-style workload whose crowd WHERE conjuncts are
written in deliberately the wrong order (unselective first), the adaptive
optimizer's pilot-then-cascade re-planning cuts the HIT count by ≥1.2×
while returning **bit-identical rows** to the static plan — ordering AND
conjuncts can change what the query costs, never what it returns.

The workload (``repro.experiments.adaptive_workload``) runs the 211-scene
movie table through ``isBright`` (~90% pass, written first) AND
``isCloseUp`` (~14% pass, written second) over a careful-only worker pool,
so the comparison isolates planner economics from worker noise. Static
numbers come from ``REPRO_ADAPT=0`` (the paper's query-order cascade);
adaptive numbers from the default toggle-on path. That the adaptive rows
are the same on a blocking platform is pinned in tier-1
(``tests/test_adaptive_optimizer.py``, seeds 0–2).

Results land in ``benchmarks/BENCH_adaptive.json``; the acceptance floor
(1.2×) and the measured replan/round counts are recorded alongside so the
CI wall-regression guard (``scripts/profile_hotpath.py --check``) and
future PRs can see the evidence without rerunning.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.adaptive_workload import MISORDERED_QUERY, run_misordered
from repro.util import adapt

RESULTS_PATH = Path(__file__).parent / "BENCH_adaptive.json"

REDUCTION_FLOOR = 1.2
SEEDS = (0, 1, 2)


def _measure(seed: int, adaptive: bool) -> dict:
    with adapt.forced(adaptive):
        _, result = run_misordered(seed=seed)
    return {
        "hits": result.hit_count,
        "assignments": result.assignment_count,
        "cost": round(result.total_cost, 2),
        "rows": sorted(str(row["s.img"]) for row in result.rows),
        "replans": (result.adaptive_summary or {}).get("replans", 0),
        "rounds": (result.adaptive_summary or {}).get("rounds", 0),
        "predicted_hits": (result.adaptive_summary or {}).get("predicted_hits"),
    }


@pytest.fixture(scope="module")
def results() -> dict:
    per_seed = {}
    for seed in SEEDS:
        static = _measure(seed, adaptive=False)
        adaptive = _measure(seed, adaptive=True)
        per_seed[str(seed)] = {
            "static_hits": static["hits"],
            "adaptive_hits": adaptive["hits"],
            "hit_reduction": round(static["hits"] / adaptive["hits"], 3),
            "static_cost": static["cost"],
            "adaptive_cost": adaptive["cost"],
            "rows": len(adaptive["rows"]),
            "rows_identical_to_static": adaptive["rows"] == static["rows"],
            "replans": adaptive["replans"],
            "rounds": adaptive["rounds"],
            "predicted_hits": adaptive["predicted_hits"],
        }
    payload = {
        "benchmark": "adaptive_optimizer",
        "workload": (
            "misordered-predicate Table-5 movie workload: "
            f"{' '.join(MISORDERED_QUERY.split())}"
        ),
        "modes": {
            "static": "query-order cascade (REPRO_ADAPT=0)",
            "adaptive": "pilot + observed-selectivity cascade (default)",
        },
        "reduction_floor": REDUCTION_FLOOR,
        "seeds": per_seed,
    }
    existing = {}
    if RESULTS_PATH.exists():
        existing = json.loads(RESULTS_PATH.read_text())
    existing.update(payload)
    RESULTS_PATH.write_text(json.dumps(existing, indent=1))
    return payload


def test_adaptive_cuts_hits_with_identical_rows(results):
    print()
    print(json.dumps(results["seeds"], indent=1))
    for seed, row in results["seeds"].items():
        assert row["hit_reduction"] >= REDUCTION_FLOOR, (seed, row)
        assert row["rows_identical_to_static"], (seed, row)
        assert row["replans"] >= 1, (seed, row)


def test_adaptive_prediction_recorded(results):
    for seed, row in results["seeds"].items():
        assert row["predicted_hits"] is not None and row["predicted_hits"] > 0
