"""The determinism pins' producers, importable without pytest.

The scalar golden trace, the unoptimized plan's trace digest, the example
outputs and the paper artifacts' tables are each pinned by a tier-1 test
(``tests/test_determinism_trace.py``, ``tests/test_examples.py``,
``tests/test_paper_artifacts.py``). The functions that produce them live
here so that
``scripts/regen_golden_trace.py`` re-pins from the same code and
``scripts/check_pins.py`` can check the pins on any interpreter, with or
without pytest installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.crowd import SimulatedMarketplace
from repro.datasets.movie import movie_dataset
from repro.experiments.end_to_end import QUERY_NO_FILTER, QUERY_WITH_FILTER
from repro.experiments.registry import EXPERIMENTS, render_experiment
from repro.joins.batching import JoinInterface

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).parent / "golden" / "determinism_trace.json"
VECTOR_GOLDEN_PATH = Path(__file__).parent / "golden" / "determinism_trace_vector.json"
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLES_GOLDEN_PATH = Path(__file__).parent / "golden" / "examples.json"
EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))
PAPER_GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_artifacts.json"
RUNNABLE = [entry for entry in EXPERIMENTS if entry.runner is not None]
REQUIRES = {"EXP-S33": "scipy"}
"""Artifacts that need an optional extra: the §3.3.3 fit is scipy's."""


class RecordingPlatform:
    """Delegates to a marketplace while recording every completed assignment."""

    def __init__(self, inner: SimulatedMarketplace) -> None:
        self.inner = inner
        self.completed = []

    def post_hit_group(self, hits, group_id=None):
        assignments = self.inner.post_hit_group(hits, group_id=group_id)
        self.completed.extend(assignments)
        return assignments

    @property
    def clock_seconds(self) -> float:
        return self.inner.clock_seconds


OPTIMIZED_CONFIG = ExecutionConfig(
    join_interface=JoinInterface.SMART,
    grid_rows=5,
    grid_cols=5,
    use_feature_filters=True,
    generative_batch_size=5,
    sort_method="rate",
    compare_group_size=5,
    rate_batch_size=5,
)
"""The paper's optimized plan: numInScene filter + Smart 5x5 join + Rate."""

UNOPTIMIZED_CONFIG = ExecutionConfig(
    join_interface=JoinInterface.SIMPLE,
    use_feature_filters=False,
    sort_method="compare",
    compare_group_size=5,
)
"""The paper's baseline plan: Simple join + Compare sort, no filter."""


def collect_trace(
    seed: int = 0,
    through_session: bool = False,
    faults=None,
    store=None,
    unoptimized: bool = False,
) -> dict:
    """Run the fixed-seed join + sort query and trace everything observable.

    This is the movie query under the paper's optimized plan (numInScene
    filter + Smart 5x5 join + Rate sort), exercising generative, join-grid,
    and rating HITs in one pass. ``unoptimized`` runs the paper's baseline
    instead (no filter, Simple join, Compare sort): over a thousand
    single-pair and compare HITs, where four worker picks in five exclude
    the workers already on the HIT. With ``through_session`` the same query
    runs as a single-query :class:`~repro.core.session.EngineSession`
    instead of a plain engine — the session layer's fidelity contract says
    the trace must be identical. ``faults`` installs a
    :class:`~repro.crowd.faults.FaultPlan` on the marketplace (a zero-rate
    plan must leave the trace untouched). ``store`` passes a persistent
    answer-store spec through to the facade — under ``REPRO_STORE=0`` a
    configured store must leave the trace untouched too.
    """
    data = movie_dataset(seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed, faults=faults)
    platform = RecordingPlatform(market)
    config = UNOPTIMIZED_CONFIG if unoptimized else OPTIMIZED_CONFIG
    query = QUERY_NO_FILTER if unoptimized else QUERY_WITH_FILTER
    if through_session:
        from repro.core.session import EngineSession

        session = EngineSession(platform=platform, config=config, store=store)
        session.register_table(data.actors)
        session.register_table(data.scenes)
        session.define(data.task_dsl)
        handle = session.submit(query)
        result = session.run()[handle]
        ledger = handle.ledger
    else:
        engine = Qurk(platform=platform, config=config, store=store)
        engine.register_table(data.actors)
        engine.register_table(data.scenes)
        engine.define(data.task_dsl)
        result = engine.execute(query)
        ledger = engine.ledger
    votes = []
    for assignment in platform.completed:
        for qid, value in assignment.answers.items():
            votes.append([qid, assignment.worker_id, repr(value)])
    return {
        "seed": seed,
        "result_rows": len(result.rows),
        "votes": votes,
        "clock_seconds": market.clock_seconds,
        "ledger": {
            "total_hits": ledger.total_hits,
            "total_assignments": ledger.total_assignments,
            "total_cost": round(ledger.total_cost, 10),
        },
        "stats": {
            "hits_posted": market.stats.hits_posted,
            "considerations": market.stats.considerations,
            "refusals": market.stats.refusals,
            "assignments_completed": market.stats.assignments_completed,
        },
        "assignment_ids": [a.assignment_id for a in platform.completed[-5:]],
        "submit_times": [
            platform.completed[i].submit_time
            for i in (0, len(platform.completed) // 2, -1)
        ],
    }



UNOPTIMIZED_TRACE_SHA256 = "ce9703312025e1022ca8af5b361a5913c6e2bc4c84bd79390eedf84d71415990"
"""sha256 of ``json.dumps(collect_trace(seed=0, unoptimized=True),
sort_keys=True)``, recorded at commit 93683f7, where an exclusion pick still
rebuilt the weight table. Re-pin on purpose only, with
``python scripts/regen_golden_trace.py --unoptimized``."""


def unoptimized_trace_digest() -> str:
    """The digest :data:`UNOPTIMIZED_TRACE_SHA256` pins."""
    trace = collect_trace(seed=0, unoptimized=True)
    return hashlib.sha256(json.dumps(trace, sort_keys=True).encode()).hexdigest()


def run_example(name: str) -> list[str]:
    """The stdout lines of ``examples/<name>.py``; raises if it fails."""
    environ = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), environ.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
        env=environ,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"examples/{name}.py exited {done.returncode}:\n{done.stderr}"
        )
    return done.stdout.splitlines()


def render_examples() -> dict[str, list[str]]:
    """Every example's stdout, as text lines."""
    return {name: run_example(name) for name in EXAMPLES}


def render_artifacts() -> dict[str, list[str]]:
    """Every runnable artifact's seed-0 table, as text lines."""
    return {
        entry.experiment_id: render_experiment(entry, seed=0).splitlines()
        for entry in RUNNABLE
    }
