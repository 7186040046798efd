"""The persistent answer store: round-trip fidelity, crash/corruption
recovery, TTL + eviction determinism, and engine/session wiring.

The durability contract under test: the store must *never* crash the
engine. A truncated, garbage, or wrong-schema-version DB file is
quarantined and rebuilt empty with a logged warning; a connection that
dies mid-flight degrades the store to memory-only mode; and in every case
queries keep running — at worst they re-buy answers the broken file lost.
"""

from __future__ import annotations

import json
import logging
import math
import os
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import SimulatedMarketplace
from repro.datasets import animals_dataset
from repro.errors import PlanError, QurkError, StoreConfigError
from repro.hits.cache import TaskCache, payload_cache_key
from repro.hits.hit import HIT, Assignment, FilterPayload, FilterQuestion
from repro.hits.manager import TaskManager
from repro.hits.store import (
    STORE_SCHEMA_VERSION,
    PersistentAnswerStore,
    StoreConfig,
    combiner_fingerprint,
    open_store,
)
from repro.relational.expressions import UNKNOWN
from repro.util.toggles import STORE


def make_hit(item: str = "a", assignments: int = 5) -> HIT:
    return HIT(
        hit_id=f"h-{item}",
        payloads=(FilterPayload("t", (FilterQuestion(item),)),),
        assignments_requested=assignments,
    )


def make_assignment(hit: HIT, worker: str = "w", **answers) -> Assignment:
    return Assignment(
        assignment_id=f"{hit.hit_id}:{worker}",
        hit_id=hit.hit_id,
        worker_id=worker,
        answers=answers or {"q": True},
        accept_time=12.25,
        submit_time=19.75,
    )


@pytest.fixture
def db_path(tmp_path) -> Path:
    return tmp_path / "answers.db"


# ---------------------------------------------------------------------------
# TaskCache parity and round-trip fidelity
# ---------------------------------------------------------------------------


def test_miss_store_hit_and_counters(db_path):
    store = PersistentAnswerStore(db_path)
    hit = make_hit()
    assert store.lookup(hit) is None
    store.store(hit, [make_assignment(hit)])
    cached = store.lookup(hit)
    assert cached is not None and len(cached) == 1
    assert store.hits == 1 and store.misses == 1
    # In-process traffic is the memory layer's win, not persistence's.
    assert store.persistent_hits == 0
    assert len(store) == 1
    store.close()


def test_repeat_lookup_returns_same_tuple(db_path):
    store = PersistentAnswerStore(db_path)
    hit = make_hit()
    store.store(hit, (make_assignment(hit),))
    first = store.lookup(hit)
    assert isinstance(first, tuple)
    assert store.lookup(hit) is first  # immutability contract, like TaskCache
    store.close()


def test_restart_round_trips_assignments_exactly(db_path):
    """A fresh process (fresh store, same file) gets bit-identical
    Assignment NamedTuples back: floats, bool-vs-int distinction, strings,
    and the UNKNOWN sentinel (as the same singleton)."""
    hit = make_hit()
    original = (
        make_assignment(
            hit,
            "w1",
            **{
                "t:filter:a": True,
                "count": 3,
                "score": 0.1 + 0.2,  # not exactly representable: repr-exact
                "label": "weasel",
                "feature": UNKNOWN,
            },
        ),
        make_assignment(hit, "w2", **{"t:filter:a": False}),
    )
    store = PersistentAnswerStore(db_path)
    store.store(hit, original)
    store.close()

    reopened = PersistentAnswerStore(db_path)
    restored = reopened.lookup(make_hit())
    assert restored == original
    assert all(isinstance(a, Assignment) for a in restored)
    answers = restored[0].answers
    assert answers["t:filter:a"] is True  # bool, not 1
    assert answers["count"] == 3 and not isinstance(answers["count"], bool)
    assert answers["score"] == 0.1 + 0.2
    assert answers["feature"] is UNKNOWN  # singleton identity restored
    assert reopened.persistent_hits == 1
    assert reopened.assignments_reused == 2
    reopened.close()


def test_contains_key_matches_lookup_would_hit(db_path):
    clock = [1000.0]
    store = PersistentAnswerStore(
        db_path, ttl_seconds=50.0, clock=lambda: clock[0]
    )
    hit = make_hit()
    assert not store.contains_key(hit.cache_key)
    store.store(hit, [make_assignment(hit)])
    assert store.contains_key(hit.cache_key)
    # contains_key is accounting-free
    assert store.hits == 0 and store.misses == 0
    clock[0] += 100.0  # past TTL: peek and lookup must agree it's gone
    assert not store.contains_key(hit.cache_key)
    assert store.lookup(hit) is None
    store.close()


def test_len_and_clear(db_path):
    store = PersistentAnswerStore(db_path)
    for item in ("a", "b", "c"):
        hit = make_hit(item)
        store.store(hit, [make_assignment(hit)])
    assert len(store) == 3
    store.clear()
    assert len(store) == 0
    assert store.lookup(make_hit("a")) is None
    store.close()
    # clear() is durable, not just the memory layer
    reopened = PersistentAnswerStore(db_path)
    assert len(reopened) == 0
    reopened.close()


def test_fingerprint_isolates_combiner_semantics(db_path):
    """Rows written under one combiner fingerprint are invisible to a
    store opened under another — stale semantics never leak — and come
    back when the original fingerprint returns."""
    hit = make_hit()
    store = PersistentAnswerStore(
        db_path, fingerprint=combiner_fingerprint("majority")
    )
    store.store(hit, [make_assignment(hit)])
    store.close()

    other = PersistentAnswerStore(
        db_path, fingerprint=combiner_fingerprint("bayes")
    )
    assert other.lookup(make_hit()) is None
    other.close()

    back = PersistentAnswerStore(
        db_path, fingerprint=combiner_fingerprint("majority")
    )
    assert back.lookup(make_hit()) is not None
    back.close()


def test_open_store_specs(tmp_path):
    path = tmp_path / "spec.db"
    from_path = open_store(str(path))
    assert isinstance(from_path, PersistentAnswerStore)
    assert open_store(from_path) is from_path
    from_path.close()
    config = StoreConfig(
        path=path, ttl_seconds=60.0, max_rows=10, combiner="majority"
    )
    from_config = open_store(config)
    assert from_config.ttl_seconds == 60.0 and from_config.max_rows == 10
    assert from_config.fingerprint == combiner_fingerprint("majority")
    from_config.close()
    with pytest.raises(TypeError):
        open_store(42)


def test_invalid_knobs_rejected(db_path):
    with pytest.raises(ValueError):
        PersistentAnswerStore(db_path, ttl_seconds=0)
    with pytest.raises(ValueError):
        PersistentAnswerStore(db_path, max_rows=0)
    with pytest.raises(ValueError):
        PersistentAnswerStore(db_path, max_bytes=0)


# ---------------------------------------------------------------------------
# Crash / corruption injection
# ---------------------------------------------------------------------------


def _populated(db_path) -> None:
    store = PersistentAnswerStore(db_path)
    for item in ("a", "b", "c"):
        hit = make_hit(item)
        store.store(hit, [make_assignment(hit)])
    store.close()


def test_garbage_file_quarantined_and_rebuilt(db_path, caplog):
    db_path.write_bytes(b"definitely not a sqlite database " * 64)
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        store = PersistentAnswerStore(db_path)
    assert store.rebuilds == 1 and not store.degraded
    assert any("quarantined" in rec.message for rec in caplog.records)
    quarantined = list(db_path.parent.glob("answers.db.corrupt-*"))
    assert len(quarantined) == 1
    # The rebuilt store is fully functional.
    hit = make_hit()
    assert store.lookup(hit) is None
    store.store(hit, [make_assignment(hit)])
    assert store.lookup(hit) is not None
    store.close()


def test_truncated_db_recovers_without_raising(db_path):
    _populated(db_path)
    blob = db_path.read_bytes()
    db_path.write_bytes(blob[: len(blob) // 2])
    store = PersistentAnswerStore(db_path)  # must not raise
    assert store.rebuilds in (0, 1)  # partial recovery or full rebuild
    hit = make_hit("fresh")
    store.store(hit, [make_assignment(hit)])
    assert store.lookup(hit) is not None
    store.close()


def test_kill_mid_write_at_any_byte_boundary(db_path, tmp_path):
    """Simulate a crash at arbitrary points of a file write: every prefix
    of a valid DB must open to a working empty-or-partial store."""
    _populated(db_path)
    blob = db_path.read_bytes()
    for fraction in (0.01, 0.1, 0.5, 0.9, 0.99):
        target = tmp_path / f"cut-{fraction}.db"
        target.write_bytes(blob[: max(1, int(len(blob) * fraction))])
        store = PersistentAnswerStore(target)  # must never raise
        hit = make_hit("post-crash")
        store.store(hit, [make_assignment(hit)])
        assert store.lookup(hit) is not None
        store.close()


def test_interrupted_connection_degrades_to_memory_only(db_path, caplog):
    """A connection that dies mid-flight (the process's handle is yanked)
    must degrade the store to memory-only mode, not raise into the engine."""
    store = PersistentAnswerStore(db_path)
    hit = make_hit()
    store.store(hit, [make_assignment(hit)])
    store._conn.close()  # simulate the interruption behind the store's back
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        other = make_hit("other")
        store.store(other, [make_assignment(other)])  # no exception
        assert store.lookup(other) is not None  # memory layer still serves
    assert store.degraded
    assert any("memory-only" in rec.message for rec in caplog.records)
    # Hits already in memory keep working; cold keys are honest misses.
    assert store.lookup(hit) is not None
    assert store.lookup(make_hit("never-seen")) is None


def test_wrong_schema_version_quarantined_and_rebuilt(db_path, caplog):
    _populated(db_path)
    conn = sqlite3.connect(db_path)
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
        (str(STORE_SCHEMA_VERSION + 41),),
    )
    conn.commit()
    conn.close()
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        store = PersistentAnswerStore(db_path)
    assert store.rebuilds == 1
    assert store.lookup(make_hit("a")) is None  # old rows not trusted
    store.store(make_hit("a"), [make_assignment(make_hit("a"))])
    assert store.lookup(make_hit("a")) is not None
    store.close()


def test_undecodable_row_is_dropped_as_miss(db_path):
    """A structurally valid DB holding an unreadable blob (partial write
    that still checksums, manual edit) yields a miss, not a crash."""
    _populated(db_path)
    hit = make_hit("a")
    conn = sqlite3.connect(db_path)
    conn.execute(
        "UPDATE answers SET assignments = ? WHERE cache_key = ?",
        ("{not valid json", hit.cache_key),
    )
    conn.commit()
    conn.close()
    store = PersistentAnswerStore(db_path)
    assert store.lookup(make_hit("a")) is None
    assert store.lookup(make_hit("b")) is not None  # siblings unaffected
    store.close()


def test_unserializable_answer_stays_memory_only(db_path, caplog):
    """An answer value JSON can't carry keeps that entry in-process
    (TaskCache behavior) instead of failing the store."""
    store = PersistentAnswerStore(db_path)
    hit = make_hit()
    weird = make_assignment(hit, answers_placeholder=True)._replace(
        answers={"q": object()}
    )
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        store.store(hit, [weird])
    assert store.lookup(hit) is not None  # served from memory
    assert not store.degraded
    store.close()
    reopened = PersistentAnswerStore(db_path)
    assert reopened.lookup(make_hit()) is None  # never reached disk
    reopened.close()


# ---------------------------------------------------------------------------
# TTL and eviction determinism
# ---------------------------------------------------------------------------


def test_ttl_sweep_on_open(db_path):
    clock = [0.0]
    store = PersistentAnswerStore(
        db_path, ttl_seconds=100.0, clock=lambda: clock[0]
    )
    hit = make_hit()
    store.store(hit, [make_assignment(hit)])
    store.close()
    clock[0] = 500.0
    reopened = PersistentAnswerStore(
        db_path, ttl_seconds=100.0, clock=lambda: clock[0]
    )
    assert reopened.evictions_ttl == 1
    assert reopened.lookup(make_hit()) is None
    reopened.close()


def test_ttl_expires_memory_layer_too(db_path):
    clock = [0.0]
    store = PersistentAnswerStore(
        db_path, ttl_seconds=10.0, clock=lambda: clock[0]
    )
    hit = make_hit()
    store.store(hit, [make_assignment(hit)])
    assert store.lookup(hit) is not None  # in-memory, fresh
    clock[0] = 11.0
    assert store.lookup(hit) is None  # expired even without a restart
    store.close()


def _eviction_survivors(path, items, clock_step=1.0) -> set[str]:
    clock = [100.0]
    store = PersistentAnswerStore(
        path, max_rows=3, clock=lambda: clock[0]
    )
    for item in items:
        hit = make_hit(item)
        store.store(hit, [make_assignment(hit)])
        clock[0] += clock_step
    survivors = {
        item for item in items if store.contains_key(make_hit(item).cache_key)
    }
    store.close()
    return survivors


def test_eviction_budget_is_deterministic(tmp_path):
    """Same store sequence, same clock → same survivors, twice over."""
    items = ["e", "b", "a", "d", "c", "f"]
    first = _eviction_survivors(tmp_path / "one.db", items)
    second = _eviction_survivors(tmp_path / "two.db", items)
    assert first == second
    assert first == {"d", "c", "f"}  # strict LRU under a ticking clock


def test_eviction_tiebreak_is_lexicographic(tmp_path):
    """Equal last_used_at timestamps (frozen clock) break ties by
    cache_key, so eviction order never depends on dict/disk order."""
    survivors = _eviction_survivors(
        tmp_path / "tie.db", ["e", "b", "a", "d", "c", "f"], clock_step=0.0
    )
    # Victims are the lexicographically smallest keys; FilterQuestion item
    # order matches key order here.
    assert survivors == {"d", "e", "f"}


def test_max_bytes_budget_enforced(db_path):
    clock = [0.0]
    store = PersistentAnswerStore(
        db_path, max_bytes=700, clock=lambda: clock[0]
    )
    for i in range(6):
        hit = make_hit(f"item-{i}")
        store.store(hit, [make_assignment(hit)])
        clock[0] += 1.0
    assert store.byte_size() <= 700
    assert store.evictions_budget > 0
    store.close()


def test_evicted_key_not_counted_by_budget_preflight(db_path):
    """Satellite contract: projected_new_assignments must not count a hit
    the store can no longer deliver (evicted or expired rows)."""
    clock = [0.0]
    store = PersistentAnswerStore(
        db_path, max_rows=1, clock=lambda: clock[0]
    )
    manager = TaskManager(platform=None, cache=store)
    unit_a = [FilterPayload("t", (FilterQuestion("a"),))]
    unit_b = [FilterPayload("t", (FilterQuestion("b"),))]

    merged_a = TaskManager.merge_units([unit_a], 1)[0]
    hit_a = HIT(hit_id="h-a", payloads=merged_a, assignments_requested=5)
    store.store(hit_a, [make_assignment(hit_a)])
    assert manager.projected_new_assignments([unit_a], 1, 5) == 0

    clock[0] += 1.0
    merged_b = TaskManager.merge_units([unit_b], 1)[0]
    hit_b = HIT(hit_id="h-b", payloads=merged_b, assignments_requested=5)
    store.store(hit_b, [make_assignment(hit_b)])  # evicts a (max_rows=1)
    assert manager.projected_new_assignments([unit_a], 1, 5) == 5
    assert manager.projected_new_assignments([unit_b], 1, 5) == 0
    store.close()


# ---------------------------------------------------------------------------
# Engine / session wiring
# ---------------------------------------------------------------------------

ANIMALS_QUERY = (
    "SELECT a.name, animalInfo(a.img).common AS common FROM animals AS a"
)


def animals_engine(store=None, cache=None, seed=5):
    data = animals_dataset()
    market = SimulatedMarketplace(data.truth, seed=seed)
    engine = Qurk(
        platform=market,
        config=ExecutionConfig(generative_batch_size=5),
        store=store,
        cache=cache,
    )
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return engine


def test_engine_restart_warm_run_is_free_and_identical(db_path):
    cold_engine = animals_engine(store=db_path)
    cold = cold_engine.execute(ANIMALS_QUERY)
    assert cold.total_cost > 0
    assert cold.store_summary is not None
    assert cold.store_summary["persistent_hits"] == 0
    cold_engine.store.close()

    warm_engine = animals_engine(store=db_path)  # fresh process, same file
    warm = warm_engine.execute(ANIMALS_QUERY)
    assert warm.as_dicts() == cold.as_dicts()  # bit-identical rows
    assert warm.hit_count == 0 and warm.total_cost == 0.0
    summary = warm.store_summary
    assert summary["persistent_hits"] > 0
    assert summary["assignments_reused"] > 0
    assert summary["cost_saved"] == pytest.approx(cold.total_cost)
    assert "store:" in warm.explain()
    warm_engine.store.close()


def test_cold_store_run_matches_plain_taskcache_run(db_path):
    """An empty persistent store behaves exactly like TaskCache():
    same rows, HITs, and dollars for the same seed."""
    with_store = animals_engine(store=db_path)
    store_result = with_store.execute(ANIMALS_QUERY)
    with_store.store.close()

    with_cache = animals_engine(cache=TaskCache())
    cache_result = with_cache.execute(ANIMALS_QUERY)

    assert store_result.as_dicts() == cache_result.as_dicts()
    assert store_result.hit_count == cache_result.hit_count
    assert store_result.total_cost == cache_result.total_cost


def test_repro_store_off_ignores_configured_store(db_path):
    with STORE.forced(False):
        engine = animals_engine(store=db_path)
        assert engine.store is None
        result = engine.execute(ANIMALS_QUERY)
    assert result.store_summary is None
    assert not db_path.exists()  # not even opened
    assert "store:" not in result.explain()


def test_engine_rejects_cache_and_store_together(db_path):
    with pytest.raises(PlanError):
        animals_engine(store=db_path, cache=TaskCache())


@pytest.mark.parametrize("facade", [Qurk, EngineSession])
@pytest.mark.parametrize(
    "spec, named",
    [
        (lambda path: StoreConfig(path, ttl_seconds=0), "ttl_seconds"),
        (lambda path: StoreConfig(path, ttl_seconds=math.nan), "ttl_seconds"),
        (lambda path: StoreConfig(path, max_rows=0), "max_rows"),
        (lambda path: StoreConfig(path, max_bytes=-1), "max_bytes"),
        (lambda path: StoreConfig(path, max_bytes="1MB"), "max_bytes"),
        (lambda path: 42, "store must be"),
    ],
    ids=["ttl-zero", "ttl-nan", "rows-zero", "bytes-negative", "bytes-text", "int-spec"],
)
def test_bad_store_spec_raises_qurk_error(facade, spec, named, db_path):
    """Each bad spec used to raise a bare ValueError or TypeError, and a NaN
    TTL was accepted and never expired a row. The error is still both
    builtins, so handlers written for those keep working."""
    data = animals_dataset()
    with STORE.forced(True), pytest.raises(QurkError, match=named) as raised:
        facade(platform=SimulatedMarketplace(data.truth, seed=5), store=spec(db_path))
    assert isinstance(raised.value, StoreConfigError)
    assert isinstance(raised.value, ValueError) and isinstance(raised.value, TypeError)
    assert not db_path.exists()


def test_session_over_store_shares_and_persists(db_path):
    """A session's shared cache can be the store: cross-query dedup and
    owner attribution work unchanged, and a later session on the same file
    reuses the answers from disk."""
    data = animals_dataset()
    market = SimulatedMarketplace(data.truth, seed=5)
    session = EngineSession(
        platform=market,
        config=ExecutionConfig(generative_batch_size=5),
        store=db_path,
    )
    session.register_table(data.table)
    session.define(data.task_dsl)
    h0 = session.submit(ANIMALS_QUERY)
    h1 = session.submit(ANIMALS_QUERY)
    outcome = session.run()
    assert outcome[h0].as_dicts() == outcome[h1].as_dicts()
    # One of the twins borrowed the other's answers (view attribution).
    assert outcome.stats.cross_cache_hits > 0
    assert outcome.stats.store_summary is not None
    assert "session store:" in outcome.explain()
    session.store.close()

    market2 = SimulatedMarketplace(data.truth, seed=5)
    revisit = EngineSession(
        platform=market2,
        config=ExecutionConfig(generative_batch_size=5),
        store=db_path,
    )
    revisit.register_table(data.table)
    revisit.define(data.task_dsl)
    h = revisit.submit(ANIMALS_QUERY)
    warm = revisit.run()
    assert warm[h].as_dicts() == outcome[h0].as_dicts()
    assert warm[h].total_cost == 0.0
    assert warm.stats.store_summary["persistent_hits"] > 0
    revisit.store.close()


def test_engine_session_inherits_engine_store(db_path):
    engine = animals_engine(store=db_path)
    session = engine.session()
    assert session.store is engine.store
    engine.store.close()


def test_store_survives_engine_level_corruption(db_path):
    """End to end: a corrupted file between runs never stops a query."""
    engine = animals_engine(store=db_path)
    engine.execute(ANIMALS_QUERY)
    engine.store.close()
    blob = db_path.read_bytes()
    db_path.write_bytes(b"\x00" * 128 + blob[128:])  # stomp the header
    retry = animals_engine(store=db_path)
    assert retry.store.rebuilds == 1
    result = retry.execute(ANIMALS_QUERY)  # re-buys, does not raise
    assert result.total_cost > 0
    retry.store.close()
