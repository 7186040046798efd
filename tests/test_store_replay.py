"""A replayed store row must answer the HIT that asks.

Pair question ids escape ``\\`` and ``|`` inside refs. A store written
before that escaping holds the same cache keys (payload reprs do not
change) but answers under the old ids, so for a ref containing ``|`` a
warm run used to replay answers to questions nobody asked: a join lost
those matches and posted nothing, and a compare sort raised a misleading
``QurkError``. The store now drops such a row as a miss, and the HIT is
posted again.

``tests/golden/answer_store.sql`` is an ``iterdump`` of a store written
by this engine over refs with and without ``|``. It must keep reading
warm: no HIT posted, and the cold rows. Re-pin it on purpose only, with
``scripts/regen_golden_trace.py --store``.
"""

from __future__ import annotations

import json
import logging
import sqlite3
from pathlib import Path

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.datasets.squares import SORT_TASK, TASK_DSL
from repro.errors import BudgetExceededError
from repro.hits.hit import HIT, Assignment, JoinPair, JoinPairsPayload, split_pair
from repro.hits.store import PersistentAnswerStore
from repro.joins.batching import JoinInterface
from repro.relational.schema import Schema
from repro.relational.table import Table

GOLDEN_STORE_DUMP = Path(__file__).parent / "golden" / "answer_store.sql"

BAND_DSL = """
TASK sameBand(f1, f2) TYPE EquiJoin:
    SingularName: "band"
    PluralName: "bands"
    LeftPreview: "<img src='%s'>", tuple1[f1]
    LeftNormal: "<img src='%s'>", tuple1[f1]
    RightPreview: "<img src='%s'>", tuple2[f2]
    RightNormal: "<img src='%s'>", tuple2[f2]
    Combiner: MajorityVote
"""
BANDS = ["img://band|0", "img://band/1", "img://band|2"]
PHOTOS = ["img://photo/0", "img://photo/1", "img://photo/2"]
SQUARES = ["img://sq|0", "img://sq/1", "img://sq|2", "img://sq/3"]
JOIN = "SELECT b.name, p.id FROM bands b JOIN photos p ON sameBand(b.img, p.img)"
SORT = "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
CONFIG = ExecutionConfig(
    join_interface=JoinInterface.SIMPLE, sort_method="compare", compare_group_size=2
)
COLD_ROWS = {
    JOIN: [("band-0", "0"), ("band-1", "1"), ("band-2", "2")],
    SORT: [("sq-0",), ("sq-1",), ("sq-2",), ("sq-3",)],
}
"""What the two queries return: each band matches its own photo, and the
squares sort by size."""


def build_engine(
    store, seed: int = 3, config: ExecutionConfig = CONFIG
) -> tuple[Qurk, SimulatedMarketplace]:
    """An engine over the band join and the square sort, posting through a
    fresh marketplace."""
    bands = Table("bands", Schema.of("name text", "img url"))
    photos = Table("photos", Schema.of("id text", "img url"))
    squares = Table("squares", Schema.of("label text", "img url"))
    truth = GroundTruth()
    for i, (band, photo) in enumerate(zip(BANDS, PHOTOS)):
        bands.insert({"name": f"band-{i}", "img": band})
        photos.insert({"id": str(i), "img": photo})
    for i, square in enumerate(SQUARES):
        squares.insert({"label": f"sq-{i}", "img": square})
    truth.add_join_task("sameBand", set(zip(BANDS, PHOTOS)))
    truth.add_rank_task(
        SORT_TASK,
        {square: float(i) for i, square in enumerate(SQUARES)},
        comparison_ambiguity=0.1,
    )
    market = SimulatedMarketplace(truth, seed=seed)
    engine = Qurk(platform=market, config=config, store=store)
    for table in (bands, photos, squares):
        engine.register_table(table)
    engine.define(BAND_DSL)
    engine.define(TASK_DSL)
    return engine, market


def run_queries(engine: Qurk) -> dict[str, list[tuple]]:
    rows = {}
    for query in (JOIN, SORT):
        result = engine.execute(query)
        rows[query] = [tuple(row.as_dict().values()) for row in result.rows]
    rows[JOIN].sort()
    return rows


def unescaped(qid: str) -> str:
    """``qid`` as written before pair ids escaped their refs."""
    task, kind, body = qid.split(":", 2)
    if kind not in ("join", "cmp"):
        return qid
    return f"{task}:{kind}:{'|'.join(split_pair(body))}"


def rewrite_to_unescaped_ids(path: Path) -> int:
    """Rewrite every stored answer id to the unescaped encoding; returns
    how many rows changed."""
    conn = sqlite3.connect(path)
    changed = 0
    for key, blob in conn.execute("SELECT cache_key, assignments FROM answers").fetchall():
        records = json.loads(blob)
        for record in records:
            record["answers"] = {unescaped(q): v for q, v in record["answers"].items()}
        rewritten = json.dumps(records, separators=(",", ":"))
        if rewritten != blob:
            changed += 1
            conn.execute(
                "UPDATE answers SET assignments = ? WHERE cache_key = ?", (rewritten, key)
            )
    conn.commit()
    conn.close()
    return changed


def test_unescaped_rows_are_asked_again(tmp_path, caplog):
    """A store rewritten to the unescaped ids returns the cold rows warm,
    and posts exactly the HITs whose stored answers no longer match."""
    path = tmp_path / "answers.db"
    engine, market = build_engine(path)
    assert run_queries(engine) == COLD_ROWS
    cold_hits = market.stats.hits_posted
    engine.store.close()
    stale = rewrite_to_unescaped_ids(path)
    assert 0 < stale < cold_hits

    engine, market = build_engine(path)
    with caplog.at_level(logging.WARNING, logger="repro.hits.store"):
        assert run_queries(engine) == COLD_ROWS
    assert market.stats.hits_posted == stale
    assert sum("which the HIT does not ask" in r.message for r in caplog.records) == stale
    engine.store.close()


def test_budget_preflight_does_not_count_stale_rows_as_paid(tmp_path):
    """With no budget to spend, a warm run over the intact store replays
    every HIT; over the rewritten store the pre-flight sees that the stale
    rows will be asked again and aborts before posting them."""
    path = tmp_path / "answers.db"
    engine, _ = build_engine(path)
    assert run_queries(engine) == COLD_ROWS
    engine.store.close()
    broke = CONFIG.with_overrides(max_budget=0.0)

    engine, market = build_engine(path, config=broke)
    assert run_queries(engine) == COLD_ROWS
    assert market.stats.hits_posted == 0
    engine.store.close()

    assert rewrite_to_unescaped_ids(path) > 0
    engine, market = build_engine(path, config=broke)
    with pytest.raises(BudgetExceededError):
        engine.execute(JOIN)
    assert market.stats.hits_posted == 0
    engine.store.close()


def test_warm_replay_combines_with_the_query_combiner(tmp_path):
    """Rows hold raw assignments, so the query's own combiner runs over
    them after replay: a warm QualityAdjust run over answers stored under
    MajorityVote posts nothing and returns a cold QualityAdjust run's rows."""

    def join(path, combiner):
        engine, market = build_engine(path, config=CONFIG.with_overrides(combiner=combiner))
        rows = sorted(tuple(row.as_dict().values()) for row in engine.execute(JOIN).rows)
        engine.store.close()
        return rows, market.stats.hits_posted

    path = tmp_path / "answers.db"
    assert join(path, "MajorityVote")[1] > 0
    cold_rows, cold_hits = join(tmp_path / "cold.db", "QualityAdjust")
    assert cold_hits > 0
    assert join(path, "QualityAdjust") == (cold_rows, 0)


def test_row_answering_another_question_is_a_miss(tmp_path):
    hit = HIT(
        hit_id="h",
        payloads=(JoinPairsPayload("sameBand", (JoinPair("a|b", "c"),)),),
        assignments_requested=1,
    )
    path = tmp_path / "answers.db"
    store = PersistentAnswerStore(path)
    store.store(hit, [Assignment("h:w", "h", "w", {"sameBand:join:a|b|c": True})])
    store.close()
    store = PersistentAnswerStore(path)
    assert not store.contains_key(hit.cache_key, hit.payloads)
    assert store.lookup(hit) is None
    assert (store.misses, store.persistent_hits, store.row_count()) == (1, 0, 0)
    store.close()


def test_golden_store_dump_reads_warm(tmp_path):
    """The committed dump of a store this engine wrote answers every HIT
    of both queries: nothing is posted, and the rows are the cold ones."""
    path = tmp_path / "answers.db"
    conn = sqlite3.connect(path)
    conn.executescript(GOLDEN_STORE_DUMP.read_text(encoding="utf-8"))
    conn.close()
    engine, market = build_engine(path, seed=11)
    assert run_queries(engine) == COLD_ROWS
    assert market.stats.hits_posted == 0
    engine.store.close()


def write_golden_store_dump() -> None:
    """Rewrite ``tests/golden/answer_store.sql`` from a cold run of both
    queries, with every row stamped at time 0."""
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "answers.db"
        engine, _ = build_engine(PersistentAnswerStore(path, clock=lambda: 0.0))
        assert run_queries(engine) == COLD_ROWS
        engine.store.close()
        conn = sqlite3.connect(path)
        dump = "\n".join(conn.iterdump()) + "\n"
        conn.close()
    GOLDEN_STORE_DUMP.write_text(dump, encoding="utf-8")
