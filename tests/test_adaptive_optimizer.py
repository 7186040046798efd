"""The cost-based adaptive re-optimizer: estimates, re-planning, contracts.

Four promises are pinned here:

1. **Gate** — ``REPRO_ADAPT=0`` reverts to the static rewriter
   bit-identically: same plans, same posting order, same golden trace.
2. **Row identity** — adaptive conjunct ordering changes what a query
   *costs*, never what it returns: the fused chain's rows equal the
   static cascade's, on blocking and overlapping platforms alike.
3. **Economy** — on the misordered-predicate workload the adaptive plan
   posts strictly fewer HITs than the static plan.
4. **Determinism** — re-planning is a pure function of each query's own
   observations: identical runs (including an 8-query concurrent session)
   replan identically, draw for draw.
"""

from __future__ import annotations

import json

import pytest

from repro.core.adaptive import AdaptiveState, SelectivityBook
from repro.core.context import ExecutionConfig
from repro.core.cost_model import estimate_plan_cost, predicate_key
from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import SimulatedMarketplace
from repro.errors import BudgetExceededError
from repro.experiments.adaptive_workload import (
    FILTER_DSL,
    MISORDERED_QUERY,
    build_engine,
    careful_pool,
    misordered_dataset,
)
from repro.experiments.harness import BlockingPlatform
from repro.util import adapt


def _rows(result) -> list[str]:
    return sorted(str(row["s.img"]) for row in result.rows)


# ---------------------------------------------------------------------------
# SelectivityBook
# ---------------------------------------------------------------------------


def test_book_prior_before_observations():
    book = SelectivityBook()
    assert book.estimate("pred:x") == 0.5
    assert book.estimate("pred:x", prior=0.1) == 0.1
    assert book.observed("pred:x") is None


def test_book_blends_prior_with_observations():
    book = SelectivityBook(prior=0.5, prior_weight=2.0)
    book.observe("k", 10, 2)
    assert book.observed("k") == pytest.approx(0.2)
    # (2 + 0.5×2) / (10 + 2) = 0.25 — smoothed toward the prior.
    assert book.estimate("k") == pytest.approx(0.25)
    book.observe("k", 0, 0)  # empty rounds are ignored
    assert book.observed("k") == pytest.approx(0.2)


def test_book_record_fraction_and_keys():
    book = SelectivityBook()
    book.record_fraction("feature:f", 0.9, weight=10)
    assert book.observed("feature:f") == pytest.approx(0.9)
    assert book.known_keys() == ["feature:f"]


# ---------------------------------------------------------------------------
# Gate: REPRO_ADAPT=0 is the static rewriter, golden trace included
# ---------------------------------------------------------------------------


def test_adapt_off_reproduces_pinned_golden_trace():
    """The full Table-5 trace (votes, clock, ledger) with the adaptive
    optimizer forced off must equal the pinned golden byte for byte."""
    from test_determinism_trace import GOLDEN_PATH, collect_trace

    with adapt.forced(False):
        trace = collect_trace(seed=0)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace == golden


def test_adapt_off_yields_no_adaptive_machinery():
    with adapt.forced(False):
        engine, result = _run_misordered()
    assert result.adaptive_summary is None
    assert "AdaptiveCrowdFilter" not in result.explain()


def _run_misordered(config: ExecutionConfig | None = None, seed: int = 0):
    engine = build_engine(seed=seed, config=config)
    return engine, engine.execute(MISORDERED_QUERY)


@pytest.mark.parametrize("adaptive", [False, True])
def test_operator_elapsed_within_query_elapsed(adaptive):
    """Operators report how long their own crowd work took, never the
    absolute virtual clock: the second query starts with the clock far
    from zero, and no operator may outlast the query containing it."""
    with adapt.forced(adaptive):
        engine = build_engine(seed=0)
        for _ in range(2):
            result = engine.execute(MISORDERED_QUERY)
            assert result.elapsed_seconds > 0
            for stats in result.node_stats.values():
                assert stats.elapsed_seconds <= result.elapsed_seconds + 1e-6


# ---------------------------------------------------------------------------
# Row identity + economy on the misordered workload
# ---------------------------------------------------------------------------


def test_adaptive_rows_identical_to_static_with_fewer_hits():
    with adapt.forced(False):
        _, static = _run_misordered()
    with adapt.forced(True):
        _, adaptive = _run_misordered()
    assert _rows(adaptive) == _rows(static)
    assert adaptive.hit_count < static.hit_count
    summary = adaptive.adaptive_summary
    assert summary is not None and summary["replans"] >= 1
    assert summary["fused_chains"] == 1
    assert summary["actual_hits"] == adaptive.hit_count


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adaptive_identical_across_platforms(seed):
    outcomes = {}
    for blocking in (False, True):
        with adapt.forced(True):
            engine = build_engine(seed=seed)
            if blocking:
                engine = Qurk(
                    platform=BlockingPlatform(engine.platform), catalog=engine.catalog
                )
            result = engine.execute(MISORDERED_QUERY)
        if blocking:
            assert result.pipeline_summary["peak_outstanding_groups"] == 1
        outcomes[blocking] = (
            _rows(result),
            result.hit_count,
            result.assignment_count,
            result.adaptive_summary["rounds"],
        )
    assert outcomes[False] == outcomes[True]


def test_explain_renders_members_and_replan_log():
    with adapt.forced(True):
        _, result = _run_misordered()
    text = result.explain()
    assert "AdaptiveCrowdFilter(2 conjuncts" in text
    assert "CrowdFilter(isBright(s.img))" in text
    assert "estimated_selectivity" in text and "observed_selectivity" in text
    assert "adaptive: replans=" in text
    assert "replan log:" in text and "[reordered]" in text
    assert "predicted_hits=" in text and "actual_hits=" in text


def test_engine_book_learns_across_queries():
    """An engine's (serial) queries share one selectivity book: the second
    run of the same query starts from the observed pass rates."""
    with adapt.forced(True):
        engine, first = _run_misordered()
        key = "pred:isCloseUp(s.img)"
        observed = engine.book.observed(key)
        assert observed is not None and observed < 0.3
        second = engine.execute(MISORDERED_QUERY)
    # Learned estimates surface in the second query's event log.
    first_event = second.adaptive_summary["events"][0]
    assert "est=0.50" not in first_event


# ---------------------------------------------------------------------------
# Cost model + budget pre-flight
# ---------------------------------------------------------------------------


def test_cost_model_prefers_selective_first_order():
    """With learned selectivities the fused chain's forecast is cheaper
    than a static query-order cascade of the same conjuncts."""
    engine = build_engine()
    state = AdaptiveState()
    state.book.observe("pred:isBright(s.img)", 100, 90)
    state.book.observe("pred:isCloseUp(s.img)", 100, 14)
    from repro.core.engine import parse_single_select
    from repro.core.optimizer import optimize
    from repro.core.planner import build_plan

    parsed = parse_single_select(MISORDERED_QUERY, engine.catalog)
    plan = optimize(build_plan(parsed, engine.catalog), adapt=state)
    fused = estimate_plan_cost(plan, engine.catalog, engine.config, state.book)

    static_plan = optimize(build_plan(parsed, engine.catalog))
    static = estimate_plan_cost(
        static_plan, engine.catalog, engine.config, state.book
    )
    assert fused.total_hits < static.total_hits
    assert fused.total_dollars < static.total_dollars


def test_budget_preflight_aborts_before_posting():
    config = ExecutionConfig(max_budget=0.05, budget_preflight=True)
    engine = build_engine(config=config)
    with adapt.forced(True):
        with pytest.raises(BudgetExceededError, match="pre-flight"):
            engine.execute(MISORDERED_QUERY)
    assert engine.ledger.total_hits == 0  # nothing was posted


def test_budget_preflight_off_by_default_still_aborts_midway():
    config = ExecutionConfig(max_budget=0.05)
    engine = build_engine(config=config)
    with adapt.forced(True):
        with pytest.raises(BudgetExceededError):
            engine.execute(MISORDERED_QUERY)


def test_preflight_report_in_summary_when_budget_set():
    config = ExecutionConfig(max_budget=100.0)
    engine = build_engine(config=config)
    with adapt.forced(True):
        result = engine.execute(MISORDERED_QUERY)
    preflight = result.adaptive_summary["preflight"]
    assert preflight["fits"] == 1.0
    assert preflight["projected_cost"] > 0


# ---------------------------------------------------------------------------
# Join-side (grid orientation) re-planning
# ---------------------------------------------------------------------------


def test_asymmetric_grid_orientation_replans_from_observed_sides():
    """With a 10×2 grid and |L|=5, |R|=211, riding the scenes on the
    2-wide axis posts ceil(5/10)·ceil(211/2)=106 grids; the adaptive
    optimizer transposes to ceil(5/2)·ceil(211/10)=66 and logs it."""
    from repro.datasets.movie import movie_dataset
    from repro.experiments.end_to_end import QUERY_NO_FILTER
    from repro.core.engine import Qurk

    def run(adaptive: bool):
        data = movie_dataset(seed=0)
        market = SimulatedMarketplace(data.truth, seed=0)
        config = ExecutionConfig(grid_rows=10, grid_cols=2, sort_method="rate")
        engine = Qurk(platform=market, config=config)
        engine.register_table(data.actors)
        engine.register_table(data.scenes)
        engine.define(data.task_dsl)
        with adapt.forced(adaptive):
            return engine.execute(QUERY_NO_FILTER)

    static = run(False)
    adaptive = run(True)
    assert adaptive.hit_count < static.hit_count
    events = adaptive.adaptive_summary["events"]
    assert any("grid 10x2 -> 2x10" in event for event in events)
    text = adaptive.explain()
    assert "grid_swapped=1.000" in text


def test_square_grid_never_swaps():
    with adapt.forced(True):
        from repro.datasets.movie import movie_dataset
        from repro.experiments.end_to_end import QUERY_NO_FILTER
        from repro.core.engine import Qurk

        data = movie_dataset(seed=0)
        market = SimulatedMarketplace(data.truth, seed=0)
        engine = Qurk(
            platform=market,
            config=ExecutionConfig(grid_rows=5, grid_cols=5, sort_method="rate"),
        )
        engine.register_table(data.actors)
        engine.register_table(data.scenes)
        engine.define(data.task_dsl)
        result = engine.execute(QUERY_NO_FILTER)
    assert not any(
        "grid" in event for event in result.adaptive_summary["events"]
    )


# ---------------------------------------------------------------------------
# Re-plan determinism: 8-query concurrent session
# ---------------------------------------------------------------------------


def _build_session(seed: int = 0) -> EngineSession:
    data = misordered_dataset(seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed, pool=careful_pool(seed))
    session = EngineSession(platform=market)
    session.register_table(data.scenes)
    session.define(data.task_dsl + FILTER_DSL)
    for index in range(8):
        session.submit(MISORDERED_QUERY, label=f"misordered-{index}")
    return session


def _session_fingerprint(outcome) -> list[tuple]:
    fingerprint = []
    for handle in outcome.queries:
        assert handle.error is None, handle.error
        result = handle.result
        fingerprint.append(
            (
                handle.key,
                _rows(result),
                result.hit_count,
                result.assignment_count,
                round(result.total_cost, 6),
                result.adaptive_summary["replans"],
                result.adaptive_summary["rounds"],
                tuple(result.adaptive_summary["events"]),
            )
        )
    return fingerprint


@pytest.mark.parametrize("concurrent", [True, False])
def test_session_replan_determinism_8_queries(concurrent):
    """Two identical 8-query sessions replan identically, event for event,
    in both run modes — estimate state is per-query, so a query's
    re-planning never depends on sibling progress."""
    with adapt.forced(True):
        first = _build_session().run(concurrent=concurrent)
        second = _build_session().run(concurrent=concurrent)
    assert _session_fingerprint(first) == _session_fingerprint(second)
    # All eight queries are the same query: same rows everywhere.
    rows = {tuple(entry[1]) for entry in _session_fingerprint(first)}
    assert len(rows) == 1


def test_session_queries_carry_isolated_books():
    with adapt.forced(True):
        outcome = _build_session().run()
    states = [h.adapt_state for h in outcome.queries]
    assert all(state is not None for state in states)
    books = {id(state.book) for state in states}
    assert len(books) == len(states)  # one book per query, never shared


def test_session_adapt_off_runs_static():
    with adapt.forced(False):
        outcome = _build_session().run()
    for handle in outcome.queries:
        assert handle.error is None
        assert handle.result.adaptive_summary is None
