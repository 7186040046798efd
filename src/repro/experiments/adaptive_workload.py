"""The misordered-predicate workload the adaptive optimizer is judged on.

A Table-5-style query over the movie dataset's 211 scenes with two crowd
WHERE conjuncts written in deliberately the *wrong* order: the unselective
``isBright`` (~90% pass) first, the selective ``isCloseUp`` (~14% pass)
second. The paper's static planner runs conjuncts in query order (§2.5),
so the static plan pays the unselective filter over every scene; the
adaptive re-optimizer's pilot pass measures both pass rates and cascades
the selective filter first.

Shared by ``benchmarks/bench_adaptive_optimizer.py`` (which records the
HIT reduction into ``BENCH_adaptive.json``), ``tests/test_adaptive_optimizer.py``
(re-plan determinism), and ``scripts/profile_hotpath.py --check`` (wall
regression guard), so all three measure exactly the same thing.

The worker pool is careful-only with near-zero filter error: this workload
measures *planner economics* (HIT counts under different conjunct orders),
so worker noise — covered by the Table 1–5 benchmarks — is held at zero to
make the rows provably order-independent (the bench asserts the adaptive
plan returns bit-identical rows to the static plan).
"""

from __future__ import annotations

import dataclasses

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.crowd import SimulatedMarketplace
from repro.crowd.pool import PoolConfig, WorkerPool
from repro.crowd.worker import make_reliable
from repro.datasets.movie import MovieDataset, movie_dataset
from repro.util.rng import RandomSource

FILTER_DSL = """
TASK isBright(field) TYPE Filter:
    Prompt: "<img src='%s'> Is this scene brightly lit?", tuple[field]

TASK isCloseUp(field) TYPE Filter:
    Prompt: "<img src='%s'> Is this a close-up shot of one actor?", tuple[field]
"""

MISORDERED_QUERY = """
SELECT s.img FROM scenes s
WHERE isBright(s.img) AND isCloseUp(s.img)
"""
"""Unselective conjunct deliberately first — the static plan's mistake."""

BRIGHT_PASS_THRESHOLD = 10
CLOSEUP_PASS_MODULUS = 20
CLOSEUP_PASS_BELOW = 3


def _scene_hash(index: int) -> int:
    """Deterministic pseudo-random scene bucket (Knuth multiplicative)."""
    return (index * 2654435761) % 100


def careful_pool(seed: int, size: int = 60) -> WorkerPool:
    """A reliable-only pool with near-zero filter error (see module doc)."""
    rng = RandomSource(seed).child("careful-pool")
    workers = [
        dataclasses.replace(
            make_reliable(f"careful-{i}", rng),
            filter_error=0.002,
            batch_error_growth=0.0,
        )
        for i in range(size)
    ]
    config = PoolConfig(
        size=size,
        reliable_fraction=1.0,
        sloppy_fraction=0.0,
        spammer_fraction=0.0,
    )
    return WorkerPool(workers, config, seed)


def misordered_dataset(seed: int = 0) -> MovieDataset:
    """The movie dataset plus truth for the two misordered filters."""
    data = movie_dataset(seed=seed)
    bright: dict[str, bool] = {}
    close_up: dict[str, bool] = {}
    for index, ref in enumerate(data.scene_refs):
        bucket = _scene_hash(index)
        bright[ref] = bucket >= BRIGHT_PASS_THRESHOLD  # ~90% pass
        close_up[ref] = bucket % CLOSEUP_PASS_MODULUS < CLOSEUP_PASS_BELOW  # ~14%
    data.truth.add_filter_task("isBright", bright)
    data.truth.add_filter_task("isCloseUp", close_up)
    return data


def build_engine(
    seed: int = 0,
    config: ExecutionConfig | None = None,
    data: MovieDataset | None = None,
) -> Qurk:
    """A fresh engine + careful marketplace holding the workload."""
    if data is None:
        data = misordered_dataset(seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed, pool=careful_pool(seed))
    engine = Qurk(platform=market, config=config or ExecutionConfig())
    engine.register_table(data.scenes)
    engine.define(data.task_dsl + FILTER_DSL)
    return engine


def run_misordered(seed: int = 0, config: ExecutionConfig | None = None):
    """Execute the misordered query once; returns (engine, result)."""
    engine = build_engine(seed=seed, config=config)
    return engine, engine.execute(MISORDERED_QUERY)
