"""The HIT forecast counts each operator's HITs with its executor's own
batching (``repro.core.cost_model``).

Fed each run's observed pass rates (the engine's book with no prior
weight), every join node's forecast equals the HITs it posted; given a
run's true plain-prefix group sizes, the sort count equals the sort's.
"""

from __future__ import annotations

import pytest

from repro.core import sort_exec
from repro.core.context import ExecutionConfig
from repro.core.cost_model import estimate_plan_cost
from repro.core.engine import Qurk
from repro.core.plan import JoinNode, SortNode
from repro.core.sort_exec import sort_hits
from repro.crowd import SimulatedMarketplace
from repro.datasets import squares_dataset
from repro.datasets.movie import movie_dataset
from repro.experiments.end_to_end import (
    JOIN_VARIANTS,
    QUERY_NO_FILTER,
    QUERY_WITH_FILTER,
    Variant,
)
from repro.experiments.session_workload import variant_configs
from repro.experiments.sort_workload import limit_sort_setup
from repro.joins.batching import JoinInterface

DATA = movie_dataset(seed=0)

RUNS = [
    (
        variant.label,
        variant.config(),
        QUERY_WITH_FILTER if variant.use_filter else QUERY_NO_FILTER,
        7,
    )
    for variant in JOIN_VARIANTS
]
RUNS.append(
    (
        "Order By Compare",
        Variant("sort-compare", True, JoinInterface.SMART, sort_method="compare").config(),
        QUERY_WITH_FILTER,
        8,
    )
)
RUNS += [(name, config, QUERY_WITH_FILTER, 0) for name, config in variant_configs()]
"""EXP-T5's seven join variants and its compare run at their market
seeds, and the four session variants at seed 0."""


def movie_engine(config: ExecutionConfig, seed: int) -> Qurk:
    engine = Qurk(platform=SimulatedMarketplace(DATA.truth, seed=seed), config=config)
    engine.register_table(DATA.actors)
    engine.register_table(DATA.scenes)
    engine.define(DATA.task_dsl)
    return engine


def node_of(plan, kind):
    return next(node for node in plan.walk() if isinstance(node, kind))


@pytest.mark.parametrize(
    "config, query, seed", [run[1:] for run in RUNS], ids=[run[0] for run in RUNS]
)
def test_forecast_is_exact_given_observed_rates_and_group_sizes(config, query, seed):
    engine = movie_engine(config, seed)
    result = engine.execute(query)
    engine.book.prior_weight = 0
    estimate = estimate_plan_cost(result.plan, engine.catalog, config, engine.book)
    join = node_of(result.plan, JoinNode)
    assert estimate.per_node[id(join)].hits == result.node_stats[id(join)].hits

    scenes_per_actor: dict[str, set[str]] = {}
    for row in result.rows:
        scenes_per_actor.setdefault(row["a.name"], set()).add(row["s.img"])
    sizes = [len(scenes) for scenes in scenes_per_actor.values()]
    sort = node_of(result.plan, SortNode)
    assert sort_hits(sort, sizes, engine.catalog, config) == result.node_stats[id(sort)].hits


def test_second_query_forecasts_with_the_first_querys_unary_rate():
    """The unary POSSIBLY pass rate a query observes prices the next
    query's grids: with it, the join forecast is the HITs the first join
    posted (under the 0.5 prior it would be 65)."""
    config = JOIN_VARIANTS[3].config()  # Filter + Smart 5x5
    engine = movie_engine(config, 7)
    first = engine.execute(QUERY_WITH_FILTER)
    forecast = estimate_plan_cost(
        engine.plan(QUERY_WITH_FILTER), engine.catalog, config, engine.book
    )
    second = engine.execute(QUERY_WITH_FILTER)
    assert second.adaptive_summary["predicted_hits"] == forecast.total_hits
    join = next(cost for cost in forecast.per_node.values() if cost.label.startswith("CrowdJoin"))
    assert join.hits == first.node_stats[id(node_of(first.plan, JoinNode))].hits == 67


def test_sort_count_prices_the_limit_tournament():
    data = limit_sort_setup(40)
    engine = Qurk(
        platform=SimulatedMarketplace(data.truth, seed=0),
        config=ExecutionConfig(sort_method="compare"),
    )
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    result = engine.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img) DESC LIMIT 3"
    )
    sort = node_of(result.plan, SortNode)
    stats = result.node_stats[id(sort)]
    assert sort_hits(sort, [40], engine.catalog, engine.config) == (
        stats.signals["limit_tournament_hits"]
    )
    assert result.adaptive_summary["predicted_hits"] == stats.hits


def test_forecast_covers_each_group_size_once(monkeypatch):
    data = squares_dataset(n=20, seed=7)
    engine = Qurk(
        platform=SimulatedMarketplace(data.truth, seed=7),
        config=ExecutionConfig(sort_method="compare"),
    )
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    sort = node_of(
        engine.plan("SELECT squares.label FROM squares ORDER BY squareSorter(img)"),
        SortNode,
    )
    covered = []
    cover = sort_exec.covering_groups

    def counting_cover(items, size, seed):
        covered.append(len(items))
        return cover(items, size, seed)

    monkeypatch.setattr(sort_exec, "covering_groups", counting_cover)
    assert sort_hits(sort, [6, 4, 6, 1, 4], engine.catalog, engine.config) > 0
    assert covered == [4, 6]
