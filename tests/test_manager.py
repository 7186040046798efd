"""Tests for the Task Manager: merging, combining, grouping, accounting."""

import pytest

from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.errors import TaskError
from repro.hits import TaskManager
from repro.hits.cache import TaskCache
from repro.hits.hit import (
    FilterPayload,
    FilterQuestion,
    GenerativeFieldSpec,
    GenerativePayload,
    GenerativeQuestion,
)


def filter_units(n: int):
    return [
        [FilterPayload("isEven", (FilterQuestion(item=f"img://item/{i}"),))]
        for i in range(n)
    ]


@pytest.fixture
def manager(binary_filter_truth) -> TaskManager:
    return TaskManager(SimulatedMarketplace(binary_filter_truth, seed=1))


def test_merging_batches_tuples(manager):
    hits = manager.build_hits(filter_units(10), batch_size=4, assignments=5, label="f")
    assert len(hits) == 3
    assert [hit.unit_count for hit in hits] == [4, 4, 2]
    # Each HIT has one merged payload.
    assert all(len(hit.payloads) == 1 for hit in hits)


def test_combining_merges_tasks_per_tuple(manager):
    gen_a = GenerativePayload(
        "taskA", (GenerativeQuestion("i"),), (GenerativeFieldSpec("v", "Radio", ("x",)),)
    )
    gen_b = GenerativePayload(
        "taskB", (GenerativeQuestion("i"),), (GenerativeFieldSpec("v", "Radio", ("x",)),)
    )
    hits = manager.build_hits([[gen_a, gen_b]], batch_size=1, assignments=5, label="g")
    assert len(hits) == 1
    assert len(hits[0].payloads) == 2  # both tasks in one HIT


def test_build_hits_compiles_html_and_effort(manager):
    hits = manager.build_hits(filter_units(2), batch_size=2, assignments=5, label="f")
    assert hits[0].html.startswith("<form")
    assert hits[0].effort_seconds > 0


def test_run_units_collects_votes(manager):
    outcome = manager.run_units(filter_units(6), batch_size=3, assignments=5, label="f")
    assert outcome.hit_count == 2
    assert outcome.assignment_count == 10
    assert len(outcome.votes) == 6
    assert all(len(votes) == 5 for votes in outcome.votes.values())


def test_ledger_records_hits_and_assignments(manager):
    manager.run_units(filter_units(4), batch_size=2, assignments=5, label="phase1")
    assert manager.ledger.hits_for("phase1") == 2
    assert manager.ledger.assignments_for("phase1") == 10
    assert manager.ledger.total_cost == pytest.approx(10 * 0.015)


def test_empty_units(manager):
    outcome = manager.run_units([], label="f")
    assert outcome.hit_count == 0
    assert outcome.votes == {}


def test_invalid_batch_size(manager):
    with pytest.raises(TaskError):
        manager.build_hits(filter_units(1), batch_size=0, assignments=5, label="f")


def test_empty_unit_rejected(manager):
    with pytest.raises(TaskError):
        manager.build_hits([[]], batch_size=1, assignments=5, label="f")


def test_latencies_are_positive_and_ordered(manager):
    outcome = manager.run_units(filter_units(4), batch_size=2, assignments=3, label="f")
    latencies = outcome.assignment_latencies()
    assert all(latency > 0 for latency in latencies)
    assert outcome.finish_time >= outcome.post_time


def test_cache_avoids_reposting(binary_filter_truth):
    market = SimulatedMarketplace(binary_filter_truth, seed=2)
    manager = TaskManager(market, cache=TaskCache())
    first = manager.run_units(filter_units(4), batch_size=2, assignments=5, label="f")
    cost_after_first = manager.ledger.total_cost
    second = manager.run_units(filter_units(4), batch_size=2, assignments=5, label="f")
    assert manager.ledger.total_cost == cost_after_first  # nothing re-paid
    assert second.votes.keys() == first.votes.keys()


def test_outcome_merge():
    from repro.hits.manager import BatchOutcome
    from repro.hits.hit import Vote
    from repro.hits.vote_columns import VoteColumns

    a = BatchOutcome(post_time=0.0, finish_time=5.0)
    a.columns = VoteColumns.from_corpus({"q": [Vote("w1", True)]})
    b = BatchOutcome(post_time=1.0, finish_time=9.0)
    b.columns = VoteColumns.from_corpus({"q": [Vote("w2", False)]})
    a.merge(b)
    assert len(a.votes["q"]) == 2
    assert a.finish_time == 9.0


def test_outcome_merge_into_fresh_outcome_keeps_round_timing(manager):
    """A fresh outcome has no HITs, so its default post_time marks no
    posting: merging a round into it must not stretch the elapsed time back
    to virtual time zero."""
    from repro.hits.manager import BatchOutcome

    manager.platform.advance_clock(1000.0)
    outcome = manager.run_units(filter_units(4), batch_size=2, assignments=5, label="f")
    assert outcome.post_time == 1000.0
    total = BatchOutcome()
    total.merge(outcome)
    assert total.post_time == outcome.post_time
    assert total.elapsed_seconds == outcome.elapsed_seconds
    # A round that posted nothing leaves a posted outcome's timing alone.
    total.merge(BatchOutcome())
    assert (total.post_time, total.finish_time) == (outcome.post_time, outcome.finish_time)
