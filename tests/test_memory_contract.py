"""A finished query leaves nothing behind in the process.

State that a query builds belongs to that query: a HIT's compare-pair
layouts live on its payload, and child seeds are hashed afresh. The only
state meant to outlive a query is listed in docs/ARCHITECTURE.md
("What outlives a query"); none of it grows with the number of queries run.

Each probe runs a workload twice to warm what is allowed to stay (imports,
registries, the Zipf tables), then traces two more runs on fresh seeds and
counts the bytes they allocated that are still alive after a
``gc.collect()``. A process-wide memo keyed by the work done (the retired
``lru_cache`` on compare layouts or on child seeds) retains tens to
hundreds of KiB here.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import SimulatedMarketplace
from repro.datasets.movie import movie_dataset
from repro.experiments.end_to_end import QUERY_NO_FILTER, QUERY_WITH_FILTER
from repro.experiments.session_workload import variant_configs
from repro.hits.hit import HIT, CompareGroup, ComparePayload
from repro.util.toggles import VECTOR

from determinism_pins import UNOPTIMIZED_CONFIG

RETAINED_LIMIT = 8 * 1024
"""Bytes two finished queries may leave allocated: interpreter free lists
and allocator slack, far below what any per-query memo keeps."""


@pytest.fixture(scope="module")
def movie():
    return movie_dataset(seed=0)


def retained_bytes(run, first_seed: int, filters=()) -> tuple[int, str]:
    """Bytes allocated by ``run`` on ``first_seed + 2`` and ``+ 3`` that are
    still alive afterwards, once runs on ``first_seed`` and ``+ 1`` have
    warmed the process; with the five largest allocation sites, for the
    failure message.

    Each probe takes seeds no other test uses, so a memo keyed by seed
    cannot be warm from an earlier test and hide its growth.
    """
    for seed in (first_seed, first_seed + 1):
        run(seed)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for seed in (first_seed + 2, first_seed + 3):
            run(seed)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    keep = [tracemalloc.Filter(False, tracemalloc.__file__), *filters]
    stats = after.filter_traces(keep).compare_to(before.filter_traces(keep), "lineno")
    top = "\n".join(str(stat) for stat in stats[:5])
    return sum(stat.size_diff for stat in stats), top


def run_baseline(data):
    """The paper's baseline plan (Simple join + Compare sort) through Qurk."""

    def run(seed: int) -> None:
        engine = Qurk(
            platform=SimulatedMarketplace(data.truth, seed=seed),
            config=UNOPTIMIZED_CONFIG.with_overrides(seed=seed),
        )
        engine.register_table(data.actors)
        engine.register_table(data.scenes)
        engine.define(data.task_dsl)
        assert engine.execute(QUERY_NO_FILTER).rows

    return run


def test_baseline_queries_retain_nothing(movie):
    retained, top = retained_bytes(run_baseline(movie), 7100)
    assert retained < RETAINED_LIMIT, f"{retained} B retained:\n{top}"


def test_store_backed_session_retains_nothing(movie, tmp_path):
    """The four session variants (compare, hybrid and rate sorts over Smart
    joins) on one store file: the first run writes it, later runs replay
    what they share with it from disk and dispatch the rest."""
    store_path = tmp_path / "answers.db"

    def run(seed: int) -> None:
        session = EngineSession(
            platform=SimulatedMarketplace(movie.truth, seed=seed), store=store_path
        )
        session.register_table(movie.actors)
        session.register_table(movie.scenes)
        session.define(movie.task_dsl)
        handles = [
            session.submit(
                QUERY_WITH_FILTER, config=config.with_overrides(seed=seed), label=name
            )
            for name, config in variant_configs()
        ]
        results = session.run()
        session.store.close()
        assert all(results[handle].rows for handle in handles)

    retained, top = retained_bytes(run, 7200)
    assert retained < RETAINED_LIMIT, f"{retained} B retained:\n{top}"


def test_vector_queries_retain_nothing(movie):
    """The baseline plan on the numpy kernel. numpy's own allocations (its
    data buffers and its Python frames) are left out: numpy caches small
    buffers for reuse, which is numpy's business, not the engine's."""
    np = pytest.importorskip("numpy")
    numpy_dir = np.__file__.rsplit("/", 1)[0]
    numpy_own = [
        tracemalloc.DomainFilter(False, np.lib.tracemalloc_domain),
        tracemalloc.Filter(False, f"{numpy_dir}/*"),
    ]
    with VECTOR.forced(True):
        retained, top = retained_bytes(run_baseline(movie), 7300, numpy_own)
    assert retained < RETAINED_LIMIT, f"{retained} B retained:\n{top}"


# ---------------------------------------------------------------------------
# Compare-pair layouts live on the payload
# ---------------------------------------------------------------------------


def compare_hit(task_name: str = "sorter") -> HIT:
    groups = (CompareGroup(("a", "b", "c")), CompareGroup(("d", "a|b")))
    return HIT("h1", (ComparePayload(task_name, groups),), assignments_requested=5)


def test_assignments_of_a_hit_share_one_layout(monkeypatch):
    """Five workers answer one compare HIT; its groups' pair layouts are
    built once, on the first answer, and every answer reads that one."""
    from repro.crowd.behavior import answer_hit
    from repro.crowd.pool import PoolConfig, WorkerPool
    from repro.crowd.truth import GroundTruth
    from repro.util.rng import RandomSource

    built = []
    pair_layout = CompareGroup.pair_layout

    def counting_pair_layout(group, task_name):
        built.append(group)
        return pair_layout(group, task_name)

    monkeypatch.setattr(CompareGroup, "pair_layout", counting_pair_layout)
    hit = compare_hit()
    (payload,) = hit.payloads
    truth = GroundTruth()
    truth.add_rank_task("sorter", {"a": 0.1, "b": 0.4, "c": 0.2, "d": 0.9, "a|b": 0.5})
    workers = WorkerPool.build(PoolConfig(size=5), seed=0).workers
    answers = [
        answer_hit(worker, hit, truth, RandomSource(index))
        for index, worker in enumerate(workers)
    ]
    assert built == list(payload.groups)
    layouts = payload.pair_layouts()
    qids = {qid for layout in layouts for *_, qid in layout}
    assert all(set(answer) == qids for answer in answers)
    assert [qid for *_, qid in layouts[1]] == ["sorter:cmp:a\\|b|d"]


def test_equal_groups_under_two_tasks_get_their_own_qids():
    first = compare_hit("first").payloads[0]
    second = compare_hit("second").payloads[0]
    assert first.groups == second.groups
    first_qids = [qid for layout in first.pair_layouts() for *_, qid in layout]
    second_qids = [qid for layout in second.pair_layouts() for *_, qid in layout]
    assert [qid.split(":", 1)[1] for qid in first_qids] == [
        qid.split(":", 1)[1] for qid in second_qids
    ]
    assert all(qid.startswith("first:cmp:") for qid in first_qids)
    assert all(qid.startswith("second:cmp:") for qid in second_qids)


def test_layout_leaves_repr_equality_and_cache_key_alone():
    hit = compare_hit()
    (payload,) = hit.payloads
    text, key = repr(payload), hit.cache_key
    payload.pair_layouts()
    assert "_pair_layouts" in vars(payload)
    fresh = compare_hit().payloads[0]
    assert repr(payload) == text == repr(fresh)
    assert payload == fresh and hash(payload) == hash(fresh)
    assert HIT("h2", (payload,), assignments_requested=5).cache_key == key
