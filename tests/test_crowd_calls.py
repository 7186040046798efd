"""Tests for crowd-call execution helpers."""

import pytest

from repro.core.crowd_calls import (
    adaptive_single_question_votes,
    call_item_ref,
    evaluate_arg,
    evaluate_with_crowd,
    run_filter_call,
    run_generative_units,
    run_predicate_calls,
)
from repro.combine.adaptive import AdaptivePolicy
from repro.core.context import ExecutionConfig
from repro.crowd.truth import FeatureTruth, GroundTruth
from repro.errors import PlanError
from repro.hits.hit import FilterPayload, FilterQuestion
from repro.language.parser import parse_expression
from repro.relational.expressions import UNKNOWN, ColumnRef, UDFCall
from repro.relational.rows import Row
from repro.relational.schema import Schema

from tests.conftest import make_context

FILTER_DSL = (
    'TASK isEven(field) TYPE Filter:\nPrompt: "<img src=\'%s\'>", tuple[field]\n'
)
GEN_DSL = (
    'TASK color(field) TYPE Generative:\n'
    'Prompt: "<img src=\'%s\'>", tuple[field]\n'
    'Response: Radio("Color", ["red", "blue", UNKNOWN])\n'
)
RANK_DSL = 'TASK rk(field) TYPE Rank:\nHtml: "<img src=\'%s\'>", tuple[field]\n'


def color_truth() -> GroundTruth:
    truth = GroundTruth()
    truth.add_feature_task(
        "color",
        "value",
        FeatureTruth(
            values={f"img://item/{i}": ("red" if i % 2 else "blue") for i in range(10)},
            options=("red", "blue", UNKNOWN),
        ),
    )
    return truth


def rows_with_items(n: int, alias: str = "t") -> list[Row]:
    schema = Schema.of(f"{alias}.id integer", f"{alias}.img url")
    return [
        Row(schema, {f"{alias}.id": i, f"{alias}.img": f"img://item/{i}"})
        for i in range(n)
    ]


def test_evaluate_arg_whole_row_alias():
    row = rows_with_items(1)[0]
    value = evaluate_arg(ColumnRef("t"), row, {})
    assert isinstance(value, dict)
    assert value["t.img"] == "img://item/0"


def test_evaluate_arg_qualified_column():
    row = rows_with_items(1)[0]
    assert evaluate_arg(ColumnRef("img", "t"), row, {}) == "img://item/0"


def test_call_item_ref_uses_first_arg():
    row = rows_with_items(1)[0]
    call = UDFCall("isEven", (ColumnRef("img", "t"),))
    assert call_item_ref(call, row, {}) == "img://item/0"


def test_call_item_ref_requires_args():
    row = rows_with_items(1)[0]
    from repro.errors import ExecutionError

    with pytest.raises(ExecutionError):
        call_item_ref(UDFCall("f", ()), row, {})


def test_run_filter_call(binary_filter_truth):
    ctx = make_context(binary_filter_truth, FILTER_DSL, seed=1)
    rows = rows_with_items(10)
    call = UDFCall("isEven", (ColumnRef("img", "t"),))
    answers, outcome = run_filter_call(call, rows, ctx, "test")
    assert len(answers) == 10
    correct = sum(
        answers[f"img://item/{i}"] == (i % 2 == 0) for i in range(10)
    )
    assert correct >= 9
    assert outcome.hit_count == 2  # batch size 5


def test_run_filter_call_wrong_task_type(simple_rank_truth):
    ctx = make_context(simple_rank_truth, RANK_DSL, seed=1)
    call = UDFCall("rk", (ColumnRef("img", "t"),))
    with pytest.raises(PlanError):
        run_filter_call(call, rows_with_items(2), ctx, "test")


def test_run_generative_units_combines_answers():
    ctx = make_context(color_truth(), GEN_DSL, seed=2)
    items = [f"img://item/{i}" for i in range(6)]
    results, outcome, corpora = run_generative_units({"color": items}, ctx, "gen")
    correct = sum(
        results["color"][item]["value"] == ("red" if i % 2 else "blue")
        for i, item in enumerate(items)
    )
    assert correct >= 5
    assert len(corpora["color"]) == 6


def test_run_predicate_calls_and_evaluation(binary_filter_truth):
    ctx = make_context(binary_filter_truth, FILTER_DSL, seed=3)
    rows = rows_with_items(10)
    predicate = parse_expression("isEven(t.img)")
    bindings = run_predicate_calls(predicate, rows, ctx, "where")
    kept = [row for row in rows if evaluate_with_crowd(predicate, row, bindings, ctx)]
    assert 3 <= len(kept) <= 7
    assert all(int(str(row["t.id"])) % 2 == 0 for row in kept) or len(kept) >= 4


def test_evaluate_with_crowd_generative_comparison():
    ctx = make_context(color_truth(), GEN_DSL, seed=4)
    rows = rows_with_items(6)
    predicate = parse_expression('color(t.img) = "red"')
    bindings = run_predicate_calls(predicate, rows, ctx, "where")
    kept = [row for row in rows if evaluate_with_crowd(predicate, row, bindings, ctx)]
    ids = {int(str(row["t.id"])) for row in kept}
    assert ids and all(i % 2 == 1 for i in ids)


def test_evaluate_with_crowd_computed_udf_passthrough():
    ctx = make_context(color_truth(), GEN_DSL, seed=5)
    ctx.catalog.register_function("always", lambda v: True)
    row = rows_with_items(1)[0]
    predicate = parse_expression("always(t.img)")
    from repro.core.crowd_calls import CrowdBindings

    assert evaluate_with_crowd(predicate, row, CrowdBindings(), ctx) is True


def test_rank_task_rejected_in_predicate(simple_rank_truth):
    ctx = make_context(simple_rank_truth, RANK_DSL, seed=6)
    predicate = parse_expression("rk(t.img) = 1")
    with pytest.raises(PlanError):
        run_predicate_calls(predicate, rows_with_items(2), ctx, "where")


def test_adaptive_collection_spends_fewer_assignments(binary_filter_truth):
    policy = AdaptivePolicy(initial_votes=3, step_votes=2, max_votes=9, margin=2)
    ctx = make_context(
        binary_filter_truth,
        FILTER_DSL,
        seed=7,
        config=ExecutionConfig(adaptive=policy, filter_batch_size=1),
    )
    units = [
        [FilterPayload("isEven", (FilterQuestion(f"img://item/{i}"),))]
        for i in range(10)
    ]
    qids = [f"isEven:filter:img://item/{i}" for i in range(10)]
    votes, outcome = adaptive_single_question_votes(units, qids, ctx, "adaptive")
    counts = [sum(votes.tally()[qid].values()) for qid in qids]
    assert all(3 <= count <= 9 for count in counts)
    # Most questions settle with the initial three votes.
    assert sum(counts) < 10 * 9


def test_adaptive_top_ups_do_not_replay_cached_rounds(binary_filter_truth):
    """With a task cache, each top-up round is its own cache entry: every
    collected vote comes from an assignment the round actually bought."""
    from repro.hits.cache import TaskCache

    policy = AdaptivePolicy(initial_votes=1, step_votes=1, max_votes=7, margin=3)
    ctx = make_context(
        binary_filter_truth,
        FILTER_DSL,
        seed=7,
        config=ExecutionConfig(adaptive=policy, filter_batch_size=1),
    )
    ctx.manager.cache = TaskCache()
    units = [
        [FilterPayload("isEven", (FilterQuestion(f"img://item/{i}"),))]
        for i in range(20)
    ]
    qids = [f"isEven:filter:img://item/{i}" for i in range(20)]
    votes, outcome = adaptive_single_question_votes(units, qids, ctx, "adaptive")
    assert len(votes.value) == outcome.assignment_count
    assert len(votes.value) == ctx.manager.ledger.total_assignments
    assert len(votes.value) > len(qids)  # top-up rounds ran
