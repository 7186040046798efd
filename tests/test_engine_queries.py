"""Integration tests: full queries through the Qurk engine."""

import pytest

from repro import ExecutionConfig, JoinInterface, Qurk, SimulatedMarketplace
from repro.combine.adaptive import AdaptivePolicy
from repro.crowd.faults import FaultPlan
from repro.datasets import (
    animals_dataset,
    celebrity_dataset,
    movie_dataset,
    squares_dataset,
)
from repro.errors import (
    BudgetExceededError,
    HITUncompletedError,
    MarketplaceError,
    PlanError,
    TaskError,
)
from repro.experiments.end_to_end import QUERY_NO_FILTER, QUERY_WITH_FILTER
from repro.metrics import kendall_tau_from_orders
from repro.util.toggles import RESILIENCE, VECTOR


def make_squares_engine(n=15, seed=7, faults=None, **config):
    data = squares_dataset(n=n, seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed, faults=faults)
    engine = Qurk(platform=market, config=ExecutionConfig(**config))
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return data, engine


def test_compare_sort_recovers_true_order():
    data, engine = make_squares_engine(sort_method="compare")
    result = engine.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    expected = [f"square-{20 + 3 * i}" for i in range(15)]
    tau = kendall_tau_from_orders(result.column("squares.label"), expected)
    assert tau > 0.95
    assert result.hit_count > 0
    assert result.total_cost > 0


def test_rate_sort_close_but_cheaper():
    data, engine_compare = make_squares_engine(sort_method="compare")
    compare_result = engine_compare.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    _, engine_rate = make_squares_engine(sort_method="rate")
    rate_result = engine_rate.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    expected = [f"square-{20 + 3 * i}" for i in range(15)]
    rate_tau = kendall_tau_from_orders(rate_result.column("squares.label"), expected)
    assert rate_result.hit_count < compare_result.hit_count
    assert rate_tau > 0.55


def test_sort_desc_reverses():
    _, engine = make_squares_engine(sort_method="compare")
    asc = engine.execute("SELECT squares.label FROM squares ORDER BY squareSorter(img)")
    desc = engine.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img) DESC"
    )
    assert list(reversed(asc.column("squares.label"))) == desc.column("squares.label")


def test_limit_top_k():
    _, engine = make_squares_engine(sort_method="compare")
    result = engine.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img) DESC LIMIT 3"
    )
    assert len(result) == 3
    assert result.rows[0]["squares.label"] == "square-62"


def test_hybrid_sort_runs():
    _, engine = make_squares_engine(
        n=12, sort_method="hybrid", hybrid_iterations=8, hybrid_strategy="window"
    )
    result = engine.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    expected = [f"square-{20 + 3 * i}" for i in range(12)]
    tau = kendall_tau_from_orders(result.column("squares.label"), expected)
    assert tau > 0.6


def celebrity_engine(n=15, seed=1, **config):
    data = celebrity_dataset(n=n, seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed)
    engine = Qurk(platform=market, config=ExecutionConfig(**config))
    engine.register_table(data.celebs)
    engine.register_table(data.photos)
    engine.define(data.task_dsl)
    return data, engine


JOIN_QUERY = (
    "SELECT c.name, p.id FROM celeb c JOIN photos p ON samePerson(c.img, p.img)"
)
FILTERED_JOIN_QUERY = (
    "SELECT c.name, p.id FROM celeb c JOIN photos p ON samePerson(c.img, p.img) "
    "AND POSSIBLY gender(c.img) = gender(p.img) "
    "AND POSSIBLY skinColor(c.img) = skinColor(p.img)"
)


def join_accuracy(result, n):
    true_positives = sum(
        1
        for row in result.rows
        if str(row["c.name"]).rsplit("-", 1)[1] == str(row["p.id"])
    )
    false_positives = len(result) - true_positives
    return true_positives, false_positives


def node_stats(result, label_prefix):
    """The one node of a result whose label starts with ``label_prefix``."""
    (stats,) = [
        s for s in result.node_stats.values() if s.label.startswith(label_prefix)
    ]
    return stats


def test_simple_join_finds_matches():
    data, engine = celebrity_engine(join_interface=JoinInterface.SIMPLE)
    result = engine.execute(JOIN_QUERY)
    tp, fp = join_accuracy(result, 15)
    assert tp >= 13
    assert fp <= 2
    assert result.hit_count == 225


def test_feature_filtering_cuts_hits_without_losing_matches():
    _, plain_engine = celebrity_engine(join_interface=JoinInterface.SIMPLE)
    plain = plain_engine.execute(JOIN_QUERY)
    _, filtered_engine = celebrity_engine(join_interface=JoinInterface.SIMPLE)
    filtered = filtered_engine.execute(FILTERED_JOIN_QUERY)
    assert filtered.hit_count < plain.hit_count
    tp, _ = join_accuracy(filtered, 15)
    assert tp >= 12
    # The feature pass counts toward the join node's crowd time: its groups'
    # durations cover the node's whole crowd phase (features, then pairs).
    join = node_stats(filtered, "CrowdJoin")
    live = join.pipeline.finished_at - join.pipeline.started_at
    assert join.elapsed_seconds >= live > 0


def test_use_feature_filters_false_ignores_possibly():
    _, engine = celebrity_engine(
        join_interface=JoinInterface.SIMPLE, use_feature_filters=False
    )
    result = engine.execute(FILTERED_JOIN_QUERY)
    assert result.hit_count == 225  # full cross product, no extraction pass


def test_smart_join_uses_grid_hits():
    _, engine = celebrity_engine(
        join_interface=JoinInterface.SMART, grid_rows=5, grid_cols=5,
        use_feature_filters=False,
    )
    result = engine.execute(JOIN_QUERY)
    assert result.hit_count == 9  # ceil(15/5)² grids


def test_join_then_sort_grouped_by_name():
    data = movie_dataset(seed=2)
    market = SimulatedMarketplace(data.truth, seed=2)
    engine = Qurk(
        platform=market,
        config=ExecutionConfig(
            join_interface=JoinInterface.SMART,
            grid_rows=5,
            grid_cols=5,
            sort_method="rate",
        ),
    )
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    result = engine.execute(
        "SELECT a.name, s.img FROM actors a JOIN scenes s "
        "ON inScene(a.img, s.img) "
        "AND POSSIBLY numInScene(s.img) = 1 "
        "ORDER BY a.name, quality(s.img)"
    )
    names = result.column("a.name")
    assert names == sorted(names)  # grouped by actor
    assert len(result) > 20


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_feature_oracle_names_an_unknown_item(vector):
    """``numInScene`` has truth for scenes only. Asking it about actors
    used to escape the oracle as a bare ``KeyError`` in both dispatch
    domains."""
    if vector and not VECTOR.available():
        pytest.skip("numpy not installed; vector dispatch domain inactive")
    data = movie_dataset(seed=0)
    engine = Qurk(platform=SimulatedMarketplace(data.truth, seed=0))
    engine.register_table(data.actors)
    engine.define(data.task_dsl)
    with VECTOR.forced(vector), pytest.raises(
        MarketplaceError, match="no feature value for item 'img://actor/"
    ):
        engine.execute("SELECT a.name FROM actors a WHERE numInScene(a.img) = 1")


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_oversized_batch_is_refused_not_overflowed(vector):
    """A 600-pair Naive batch asks more than 1,420 s beyond every worker's
    effort threshold, where the acceptance logistic's ``exp`` overflows.
    That used to escape as a raw ``OverflowError`` in both dispatch
    domains; now every worker refuses the batch and nothing is paid."""
    if vector and not VECTOR.available():
        pytest.skip("numpy not installed; vector dispatch domain inactive")
    data = movie_dataset(seed=0)
    engine = Qurk(
        platform=SimulatedMarketplace(data.truth, seed=0),
        config=ExecutionConfig(
            join_interface=JoinInterface.NAIVE,
            naive_batch_size=600,
            use_feature_filters=False,
        ),
    )
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    with VECTOR.forced(vector), pytest.raises(
        HITUncompletedError, match="refused the batch size"
    ):
        engine.execute(QUERY_NO_FILTER)
    assert engine.ledger.total_cost == 0


GENERATIVE_SELECT = (
    "SELECT animals.name, animalInfo(img).common AS common FROM animals LIMIT 27"
)


def animals_engine(**config):
    data = animals_dataset()
    market = SimulatedMarketplace(data.truth, seed=3)
    engine = Qurk(platform=market, config=ExecutionConfig(**config))
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return data, engine


def test_generative_select_fields():
    _, engine = animals_engine()
    result = engine.execute(GENERATIVE_SELECT)
    matches = sum(
        1 for row in result.rows if row["common"] == row["animals.name"]
    )
    assert matches >= 24  # normalization + majority recovers names
    # The generative phase's duration lands on the Project node, which
    # runs nothing else, so it equals the node's live interval.
    project = node_stats(result, "Project")
    live = project.pipeline.finished_at - project.pipeline.started_at
    assert project.elapsed_seconds == pytest.approx(live)
    assert project.elapsed_seconds > 0


WHERE_QUERY = "SELECT c.name FROM celeb c WHERE isFemale(c)"


def where_engine(cache=None, **config):
    data = celebrity_dataset(n=10, seed=4)
    truth = data.truth
    truth.add_filter_task(
        "isFemale",
        {
            ref: data.attributes[ref]["gender"] == "Female"
            for ref in data.celeb_refs
        },
    )
    market = SimulatedMarketplace(truth, seed=4)
    engine = Qurk(platform=market, config=ExecutionConfig(**config), cache=cache)
    engine.register_table(data.celebs)
    engine.define(data.task_dsl)
    engine.define(
        'TASK isFemale(field) TYPE Filter:\n'
        'Prompt: "<img src=\'%s\'>", tuple[field]\n'
    )
    return data, engine


def test_where_crowd_filter():
    data, engine = where_engine()
    result = engine.execute(WHERE_QUERY)
    expected = {
        f"celebrity-{i}"
        for i, ref in enumerate(data.celeb_refs)
        if data.attributes[ref]["gender"] == "Female"
    }
    got = set(result.column("c.name"))
    # At most one boundary mistake from crowd noise.
    assert len(got ^ expected) <= 1


TOP_UP_POLICY = AdaptivePolicy(initial_votes=1, step_votes=1, max_votes=7, margin=3)


def test_adaptive_top_ups_are_asked_anew_with_a_cache():
    """Every top-up round re-posts the contested units; with a task cache
    attached, a round must not be served the previous round's answers (the
    margin rule would then count replayed votes)."""
    from repro.core.session import EngineSession
    from repro.hits.cache import TaskCache

    config = {"adaptive": TOP_UP_POLICY, "filter_batch_size": 1}
    _, plain = where_engine(**config)
    expected = plain.execute(WHERE_QUERY)
    assert expected.assignment_count > 10  # top-ups happened

    cache = TaskCache()
    _, engine = where_engine(cache=cache, **config)
    cold = engine.execute(WHERE_QUERY)
    assert cold.rows == expected.rows
    assert cold.assignment_count == expected.assignment_count
    warm = engine.execute(WHERE_QUERY)
    assert warm.hit_count == 0
    assert warm.rows == expected.rows

    data, _ = where_engine()
    session = EngineSession(
        platform=SimulatedMarketplace(data.truth, seed=4),
        config=ExecutionConfig(**config),
    )
    session.register_table(data.celebs)
    session.define(data.task_dsl)
    session.define(
        'TASK isFemale(field) TYPE Filter:\n'
        'Prompt: "<img src=\'%s\'>", tuple[field]\n'
    )
    session.submit(WHERE_QUERY)
    result = session.run()[0]
    assert result.rows == expected.rows
    assert result.assignment_count == expected.assignment_count


SORT_QUERY = "SELECT squares.label FROM squares ORDER BY squareSorter(img)"


def _query_case(make_engine, query, **config):
    def run():
        _, engine = make_engine(max_budget=0.0, **config)
        return engine, lambda: engine.execute(query)

    return run


def _extreme_case():
    data, engine = make_squares_engine(n=9, max_budget=0.0)
    return engine, lambda: engine.extreme("squareSorter", data.items, most=True)


ZERO_BUDGET_CASES = {
    "where": _query_case(where_engine, WHERE_QUERY),
    "where-adaptive-votes": _query_case(
        where_engine, WHERE_QUERY, adaptive=AdaptivePolicy()
    ),
    "generative-select": _query_case(animals_engine, GENERATIVE_SELECT),
    "compare-sort": _query_case(make_squares_engine, SORT_QUERY, sort_method="compare"),
    "rate-sort": _query_case(make_squares_engine, SORT_QUERY, sort_method="rate"),
    "hybrid-sort": _query_case(make_squares_engine, SORT_QUERY, sort_method="hybrid"),
    "limit-tournament": _query_case(
        make_squares_engine, SORT_QUERY + " DESC LIMIT 2", sort_method="compare"
    ),
    "simple-join": _query_case(
        celebrity_engine, JOIN_QUERY, join_interface=JoinInterface.SIMPLE
    ),
    "smart-join": _query_case(
        celebrity_engine, JOIN_QUERY, join_interface=JoinInterface.SMART
    ),
    "possibly-join": _query_case(
        celebrity_engine, FILTERED_JOIN_QUERY, join_interface=JoinInterface.SIMPLE
    ),
    "extreme": _extreme_case,
}


@pytest.mark.parametrize("case", list(ZERO_BUDGET_CASES))
def test_budget_enforcement(case):
    """A $0 budget posts nothing, whatever shape the crowd work takes."""
    engine, run = ZERO_BUDGET_CASES[case]()
    with pytest.raises(BudgetExceededError):
        run()
    assert engine.platform.stats.hits_posted == 0


def test_budget_of_exactly_the_cost_completes():
    """The per-post pre-flight prices the HITs each posting builds, so a
    budget equal to a query's unbudgeted cost completes it unchanged (the
    whole-plan forecast, armed with ``budget_preflight``, must not abort
    it either), and one assignment's price less aborts before the post
    that would overspend. Runs every Table-5 join variant with its own
    query and the four session variants."""
    from dataclasses import replace

    from repro.experiments.end_to_end import (
        JOIN_VARIANTS,
        QUERY_NO_FILTER,
        QUERY_WITH_FILTER,
    )
    from repro.experiments.session_workload import variant_configs

    data = movie_dataset(seed=0)

    def run(config, query):
        engine = Qurk(
            platform=SimulatedMarketplace(data.truth, seed=0), config=config
        )
        engine.register_table(data.actors)
        engine.register_table(data.scenes)
        engine.define(data.task_dsl)
        try:
            return engine.execute(query), engine.ledger
        except BudgetExceededError:
            return None, engine.ledger

    plans = [
        (
            variant.label,
            variant.config(),
            QUERY_WITH_FILTER if variant.use_filter else QUERY_NO_FILTER,
        )
        for variant in JOIN_VARIANTS
    ]
    plans += [(name, config, QUERY_WITH_FILTER) for name, config in variant_configs()]
    for name, config, query in plans:
        free, ledger = run(config, query)
        cost = ledger.total_cost
        capped, _ = run(replace(config, max_budget=cost, budget_preflight=True), query)
        assert capped is not None, name
        assert (capped.rows, capped.hit_count, capped.total_cost) == (
            free.rows,
            free.hit_count,
            free.total_cost,
        ), name
        below = cost - ledger.pricing.cost(1)
        aborted, short_ledger = run(replace(config, max_budget=below), query)
        assert aborted is None, name
        assert short_ledger.total_cost <= below + 1e-9, name


def test_define_rejects_select():
    _, engine = celebrity_engine()
    with pytest.raises(PlanError):
        engine.define("SELECT c.name FROM celeb c")


UNKNOWN_COMBINER_DSL = {
    "task": (
        "TASK isFemale(field) TYPE Filter:\n"
        "    Prompt: \"<img src='%s'>\", tuple[field]\n"
        "    Combiner: Nope\n"
    ),
    "field": (
        "TASK isFemale(field) TYPE Generative:\n"
        "    Prompt: \"<img src='%s'>\", tuple[field]\n"
        "    Fields: { answer: { Response: Text(\"Answer\"), Combiner: Nope } }\n"
    ),
}


@pytest.mark.parametrize("entry", ["define", "query text"])
@pytest.mark.parametrize("level", sorted(UNKNOWN_COMBINER_DSL))
def test_unknown_combiner_rejected_before_any_hit(level, entry):
    """A combiner typo used to surface as a raw ``KeyError`` at execute
    time, after the crowd had been paid for every HIT before it."""
    _, engine = celebrity_engine()
    dsl = UNKNOWN_COMBINER_DSL[level]
    with pytest.raises(TaskError, match="'isFemale'.*'Nope'.*'MajorityVote'"):
        if entry == "define":
            engine.define(dsl)
        else:
            engine.execute(dsl + "SELECT c.name FROM celeb c WHERE isFemale(c)")
    assert not engine.catalog.has_task("isFemale")
    assert engine.ledger.total_cost == 0


def test_unknown_combiner_rejected_on_direct_catalog_registration():
    """A task put straight into the catalog passes the same combiner check
    as ``define``. Registered with ``Combiner: Nope``, the movie
    ``inScene`` task used to run the optimized query until ``get_combiner``
    raised a bare ``KeyError``, after $5.77 of HITs."""
    from repro import get_combiner
    from repro.language.parser import parse_statements
    from repro.tasks import task_from_definition

    data = movie_dataset(seed=0)
    engine = Qurk(
        platform=SimulatedMarketplace(data.truth, seed=0),
        config=ExecutionConfig(
            join_interface=JoinInterface.SMART, grid_rows=5, grid_cols=5
        ),
    )
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    (task,) = [
        task_from_definition(statement)
        for statement in parse_statements(data.task_dsl)
        if statement.name == "inScene"
    ]
    task.combiner = "Nope"
    with pytest.raises(TaskError, match="'inScene'.*'Nope'.*'MajorityVote'"):
        engine.catalog.register_task(task, replace=True)
        engine.execute(QUERY_WITH_FILTER)
    assert engine.catalog.task("inScene").combiner == "MajorityVote"
    assert engine.ledger.total_cost == 0
    with pytest.raises(TaskError, match="'Nope'.*known combiners"):
        get_combiner("Nope")


def test_execute_rejects_multiple_selects():
    _, engine = celebrity_engine()
    with pytest.raises(PlanError):
        engine.execute("SELECT c.name FROM celeb c SELECT c.name FROM celeb c")


def test_result_helpers():
    _, engine = make_squares_engine(n=5, sort_method="rate")
    result = engine.execute("SELECT squares.label FROM squares ORDER BY squareSorter(img)")
    assert len(result.as_dicts()) == 5
    assert "Sort" in result.explain()
    assert result.elapsed_seconds > 0


def test_extreme_tournament():
    data, engine = make_squares_engine(n=13, sort_method="compare")
    winner, hits = engine.extreme("squareSorter", data.items, most=True)
    assert winner == data.true_order[-1]
    assert hits >= 3


def test_extreme_tournament_retries_transient_faults():
    """extreme() arms its own resilience bundle, as a query does, so a
    fresh engine over a flaky marketplace retries instead of failing."""
    with RESILIENCE.forced(True):
        data, engine = make_squares_engine(
            n=13, faults=FaultPlan(transient_error_rate=0.3)
        )
        winner, _ = engine.extreme("squareSorter", data.items, most=True)
    assert winner == data.true_order[-1]
    assert engine.platform.stats.transient_errors > 0


def test_engine_explain_without_execution():
    _, engine = make_squares_engine(n=5)
    text = engine.explain(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    assert "Scan(squares" in text
