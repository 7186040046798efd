"""Tests for the crowd-sort execution layer."""

import itertools

import pytest

from repro.core.context import ExecutionConfig
from repro.core.plan import SortNode
from repro.core.sort_exec import (
    compare_sort,
    execute_sort,
    hybrid_sort,
    make_strategy,
    rate_sort,
)
from repro.datasets import squares_dataset
from repro.errors import PlanError
from repro.language.ast import OrderItem
from repro.language.parser import parse_expression
from repro.metrics.kendall import kendall_tau_from_orders
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sorting.hybrid import ConfidenceStrategy, RandomStrategy, SlidingWindowStrategy

from tests.conftest import make_context


def squares_context(seed=5, n=12, **config):
    data = squares_dataset(n=n, seed=seed)
    ctx = make_context(
        data.truth, data.task_dsl, seed=seed, config=ExecutionConfig(seed=seed, **config)
    )
    return data, ctx


def task_of(ctx):
    return ctx.catalog.task("squareSorter")


def test_compare_sort_recovers_order():
    data, ctx = squares_context()
    order, corpus = compare_sort(task_of(ctx), data.items, ctx)
    assert kendall_tau_from_orders(order, data.true_order) > 0.9
    assert corpus  # raw votes exposed for κ analysis


def test_rate_sort_returns_summaries():
    data, ctx = squares_context()
    order, summaries = rate_sort(task_of(ctx), data.items, ctx)
    assert set(order) == set(data.items)
    assert all(summaries[ref].count > 0 for ref in data.items)
    assert kendall_tau_from_orders(order, data.true_order) > 0.4


def test_hybrid_sort_between_rate_and_compare():
    data, ctx = squares_context(hybrid_iterations=10)
    order, sorter = hybrid_sort(task_of(ctx), data.items, ctx)
    assert sorter.hits_spent == 10
    assert kendall_tau_from_orders(order, data.true_order) > 0.6


def test_make_strategy_dispatch():
    assert isinstance(make_strategy("random", 5, 6, 0), RandomStrategy)
    assert isinstance(make_strategy("confidence", 5, 6, 0), ConfidenceStrategy)
    assert isinstance(make_strategy("window", 5, 6, 0), SlidingWindowStrategy)
    with pytest.raises(PlanError):
        make_strategy("bogus", 5, 6, 0)


def make_rows(data, extra_column=None):
    names = ["s.img"] + ([extra_column] if extra_column else [])
    schema = Schema.of(*names)
    rows = []
    for i, ref in enumerate(data.items):
        values = {"s.img": ref}
        if extra_column:
            values[extra_column] = f"group-{i % 2}"
        rows.append(Row(schema, values))
    return rows


def test_execute_sort_plain_only():
    data, ctx = squares_context()
    rows = make_rows(data, extra_column="s.name")
    node = SortNode(
        order_items=(OrderItem(parse_expression("s.name")),),
        inputs=(),
    )
    ordered = execute_sort(node, rows, ctx)
    names = [row["s.name"] for row in ordered]
    assert names == sorted(names)


def test_execute_sort_crowd_only():
    data, ctx = squares_context()
    rows = make_rows(data)
    node = SortNode(
        order_items=(OrderItem(parse_expression("squareSorter(s.img)")),),
        inputs=(),
    )
    ordered = execute_sort(node, rows, ctx)
    refs = [str(row["s.img"]) for row in ordered]
    assert kendall_tau_from_orders(refs, data.true_order) > 0.9


def test_execute_sort_grouped_prefix():
    data, ctx = squares_context()
    rows = make_rows(data, extra_column="s.name")
    node = SortNode(
        order_items=(
            OrderItem(parse_expression("s.name")),
            OrderItem(parse_expression("squareSorter(s.img)")),
        ),
        inputs=(),
    )
    ordered = execute_sort(node, rows, ctx)
    groups = [str(row["s.name"]) for row in ordered]
    assert groups == sorted(groups)  # grouped by the plain prefix


def test_execute_sort_rejects_two_crowd_items():
    data, ctx = squares_context()
    node = SortNode(
        order_items=(
            OrderItem(parse_expression("squareSorter(s.img)")),
            OrderItem(parse_expression("squareSorter(s.img)")),
        ),
        inputs=(),
    )
    with pytest.raises(PlanError):
        execute_sort(node, make_rows(data), ctx)


def test_execute_sort_rejects_plain_after_crowd():
    data, ctx = squares_context()
    node = SortNode(
        order_items=(
            OrderItem(parse_expression("squareSorter(s.img)")),
            OrderItem(parse_expression("s.img")),
        ),
        inputs=(),
    )
    with pytest.raises(PlanError):
        execute_sort(node, make_rows(data), ctx)


def test_execute_sort_singleton_groups_cost_nothing():
    data, ctx = squares_context()
    rows = make_rows(data, extra_column="s.name")[:1]
    node = SortNode(
        order_items=(OrderItem(parse_expression("squareSorter(s.img)")),),
        inputs=(),
    )
    execute_sort(node, rows, ctx)
    assert ctx.manager.ledger.total_hits == 0  # nothing to compare


_SQUARE_REFS = [([f"img://sq|{i}" for i in range(6)], range(6))]
_COLLIDING_REFS = [
    (("a", "a|b", "b|c", "c"), latents) for latents in itertools.permutations(range(4))
]
"""``(refs, latent ranks)`` cases; in every latent order of the colliding
refs, the pairs ``("a|b", "c")`` and ``("a", "b|c")`` read ``a|b|c``
joined naively."""


@pytest.mark.parametrize(
    "method, cases",
    [
        pytest.param("compare", _SQUARE_REFS, id="compare"),
        pytest.param("hybrid", _SQUARE_REFS, id="hybrid"),
        pytest.param("compare", _COLLIDING_REFS, id="compare-colliding"),
        pytest.param("hybrid", _COLLIDING_REFS, id="hybrid-colliding"),
    ],
)
def test_pair_sorts_accept_refs_containing_the_pair_separator(method, cases):
    """Comparison question ids read ``task:cmp:a|b``; refs that contain
    ``|`` themselves must still decode to the compared pair, and two pairs
    must never share a question id."""
    from repro import Qurk, SimulatedMarketplace
    from repro.crowd import GroundTruth
    from repro.datasets.squares import SORT_TASK, TASK_DSL
    from repro.relational.table import Table

    for refs, latents in cases:
        table = Table("squares", Schema.of("label text", "img url"))
        truth = GroundTruth()
        for ref, latent in zip(refs, latents):
            table.insert({"label": f"sq-{latent}", "img": ref})
        truth.add_rank_task(
            SORT_TASK,
            {ref: float(latent) for ref, latent in zip(refs, latents)},
            comparison_ambiguity=0.1,
            rating_ambiguity=0.5,
        )
        engine = Qurk(
            platform=SimulatedMarketplace(truth, seed=3),
            config=ExecutionConfig(sort_method=method),
        )
        engine.register_table(table)
        engine.define(TASK_DSL)
        result = engine.execute(
            "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
        )
        expected = [f"sq-{i}" for i in range(len(refs))]
        assert result.column("squares.label") == expected, latents
