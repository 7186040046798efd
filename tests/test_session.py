"""The multi-query session layer's contract (`repro.core.session`).

Four promises, each enforced here:

1. **Single-query fidelity.** A one-query session is bit-identical (rows,
   votes, cost ledger, clock) to a plain engine execution for a fixed
   seed; `tests/test_determinism_trace.py` additionally pins it against
   the golden trace.
2. **Concurrency is latency-only.** Per-query results are bit-identical
   between `run(concurrent=True)` and `run(concurrent=False)` — each
   query's marketplace draws come from its own client stream keyed by its
   own posting order, so interleaving changes completion times, never
   votes. (Guaranteed for queries sharing no HITs; with shared HITs the
   mode can change which sibling posts a shared unit first — see the
   session module docstring.)
3. **Cross-query dedup.** Identical units posted by different queries hit
   the shared task cache: the crowd is asked once, the borrower pays
   nothing, and the sharing is accounted per query and session-wide.
4. **Isolation and fairness.** One query exhausting its budget (or
   failing any other way) leaves its siblings' results and ledgers
   untouched, and round-robin admission lets a small query's HIT groups
   onto the marketplace before a big sibling finishes.
"""

from __future__ import annotations

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.datasets import movie_dataset, squares_dataset
from repro.errors import BudgetExceededError, ExecutionError, PlanError
from repro.experiments.end_to_end import QUERY_WITH_FILTER
from repro.hits.cache import TaskCache, TaskCacheView
from repro.joins.batching import JoinInterface


class ClientRecordingMarketplace(SimulatedMarketplace):
    """Simulated marketplace logging per-client submissions and harvests."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.submissions = []
        self.harvested = []

    def submit_hit_group(self, hits, group_id=None, post_time=None, client_id=None):
        ticket = super().submit_hit_group(
            hits, group_id=group_id, post_time=post_time, client_id=client_id
        )
        self.submissions.append((client_id, ticket))
        return ticket

    def harvest(self, ticket):
        assignments = super().harvest(ticket)
        self.harvested.extend(assignments)
        return assignments


def client_vote_stream(market: ClientRecordingMarketplace, client_id):
    """One client's (qid, worker, value) votes in its own posting order."""
    return [
        (qid, a.worker_id, repr(value))
        for cid, ticket in market.submissions
        if cid == client_id
        for a in ticket.assignments
        for qid, value in a.answers.items()
    ]


def optimized_config(**overrides) -> ExecutionConfig:
    base = dict(
        join_interface=JoinInterface.SMART,
        grid_rows=5,
        grid_cols=5,
        use_feature_filters=True,
        generative_batch_size=5,
        sort_method="rate",
        compare_group_size=5,
        rate_batch_size=5,
    )
    base.update(overrides)
    return ExecutionConfig(**base)


def movie_session(seed=0, **config_overrides):
    data = movie_dataset(seed=seed)
    market = ClientRecordingMarketplace(data.truth, seed=seed)
    session = EngineSession(
        platform=market, config=optimized_config(**config_overrides)
    )
    session.register_table(data.actors)
    session.register_table(data.scenes)
    session.define(data.task_dsl)
    return session, market


GROUPED_MOVIE_QUERY = (
    "SELECT a.name, s.img FROM actors a JOIN scenes s ON inScene(a.img, s.img) "
    "AND POSSIBLY numInScene(s.img) = 1 ORDER BY a.name, quality(s.img) DESC"
)


# ---------------------------------------------------------------------------
# Two-table disjoint workload: same shape, no shared HITs, one truth
# ---------------------------------------------------------------------------

KEEP_DSL = (
    'TASK keep{n}(field) TYPE Filter:\n'
    '    Prompt: "<img src=\'%s\'>", tuple[field]\n'
    '    YesText: "Keep"\n'
    '    NoText: "Drop"\n'
)


def disjoint_session(seed=7, n=10, budgets=(None, None), **config):
    """Two structurally similar queries over disjoint tasks and tables.

    q0 filters+sorts table ``sq0`` with task ``keep0``/``squareSorter``;
    q1 filters table ``sq1`` with task ``keep1``. No HIT is shared, so the
    queries are fully independent — the baseline for isolation tests.
    """
    from repro.relational.schema import Schema
    from repro.relational.table import Table

    data = squares_dataset(n=n, seed=seed)
    refs = [row["img"] for row in data.table.scan()]
    tables = []
    for index in range(2):
        table = Table(f"sq{index}", Schema.of("label text", "img url"))
        for row in data.table.scan():
            table.insert({"label": row["label"], "img": row["img"]})
        tables.append(table)
        data.truth.add_filter_task(f"keep{index}", {ref: True for ref in refs})
    market = ClientRecordingMarketplace(data.truth, seed=seed)
    session = EngineSession(platform=market, config=ExecutionConfig(**config))
    for table in tables:
        session.register_table(table)
    session.define(data.task_dsl)
    session.define(KEEP_DSL.format(n=0))
    session.define(KEEP_DSL.format(n=1))
    h0 = session.submit(
        "SELECT sq0.label FROM sq0 WHERE keep0(sq0) "
        "ORDER BY squareSorter(img)",
        config=session.config.with_overrides(max_budget=budgets[0]),
    )
    h1 = session.submit(
        "SELECT sq1.label FROM sq1 WHERE keep1(sq1)",
        config=session.config.with_overrides(max_budget=budgets[1]),
    )
    return session, market, h0, h1


# ---------------------------------------------------------------------------
# 1. Single-query fidelity
# ---------------------------------------------------------------------------


def test_single_query_session_is_bit_identical_to_plain_engine():
    data = movie_dataset(seed=0)

    engine_market = ClientRecordingMarketplace(data.truth, seed=0)
    engine = Qurk(platform=engine_market, config=optimized_config())
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    engine_result = engine.execute(QUERY_WITH_FILTER)

    session, session_market = movie_session(seed=0)
    handle = session.submit(QUERY_WITH_FILTER)
    outcome = session.run()
    session_result = outcome[handle]

    assert session_result.as_dicts() == engine_result.as_dicts()
    assert session_result.hit_count == engine_result.hit_count
    assert session_result.assignment_count == engine_result.assignment_count
    assert session_result.total_cost == engine_result.total_cost
    assert session_market.clock_seconds == engine_market.clock_seconds
    # The single query rides the default client stream: identical votes.
    assert client_vote_stream(session_market, None) == client_vote_stream(
        engine_market, None
    )
    assert outcome.stats.queries == 1
    assert outcome.stats.cross_cache_hits == 0


# ---------------------------------------------------------------------------
# 2. Concurrency is latency-only
# ---------------------------------------------------------------------------


def run_two_query_movie_session(concurrent: bool):
    session, market = movie_session(seed=0)
    h0 = session.submit(QUERY_WITH_FILTER)
    h1 = session.submit(
        GROUPED_MOVIE_QUERY, config=optimized_config(sort_method="compare")
    )
    outcome = session.run(concurrent=concurrent)
    return outcome, market, h0, h1


def test_concurrent_results_bit_identical_to_serial():
    conc, conc_market, c0, c1 = run_two_query_movie_session(concurrent=True)
    ser, ser_market, s0, s1 = run_two_query_movie_session(concurrent=False)
    assert not conc.errors and not ser.errors
    for conc_handle, ser_handle, key in ((c0, s0, "q0"), (c1, s1, "q1")):
        conc_result, ser_result = conc[conc_handle], ser[ser_handle]
        assert conc_result.as_dicts() == ser_result.as_dicts(), key
        assert conc_result.hit_count == ser_result.hit_count, key
        assert conc_result.assignment_count == ser_result.assignment_count, key
        assert conc_result.total_cost == ser_result.total_cost, key
        # Durations are identical up to float noise: absolute post times
        # differ between the schedules (all-at-epoch vs back-to-back), so
        # the subtraction reassociates at different magnitudes.
        assert conc_result.elapsed_seconds == pytest.approx(
            ser_result.elapsed_seconds, rel=1e-9
        ), key
        assert client_vote_stream(conc_market, key) == client_vote_stream(
            ser_market, key
        ), key


def test_concurrent_session_overlaps_virtual_time():
    conc, _, _, _ = run_two_query_movie_session(concurrent=True)
    ser, _, _, _ = run_two_query_movie_session(concurrent=False)
    # The batch finishes when the slowest query does, not after the sum.
    assert conc.stats.makespan_seconds < ser.stats.makespan_seconds
    assert conc.stats.serial_latency_seconds == pytest.approx(
        ser.stats.makespan_seconds
    )
    assert conc.stats.overlap_speedup > 1.0
    assert ser.stats.overlap_speedup == pytest.approx(1.0)
    assert conc.stats.mode == "concurrent"
    assert ser.stats.mode == "serial"


def test_session_runs_reproduce_exactly():
    first, _, f0, f1 = run_two_query_movie_session(concurrent=True)
    second, _, g0, g1 = run_two_query_movie_session(concurrent=True)
    assert first[f0].as_dicts() == second[g0].as_dicts()
    assert first[f1].as_dicts() == second[g1].as_dicts()
    assert first.stats.makespan_seconds == second.stats.makespan_seconds
    assert first.stats.admission_log == second.stats.admission_log


# ---------------------------------------------------------------------------
# 3. Cross-query dedup
# ---------------------------------------------------------------------------


def test_identical_queries_share_hits_across_queries():
    session, market = movie_session(seed=0)
    h0 = session.submit(QUERY_WITH_FILTER)
    h1 = session.submit(QUERY_WITH_FILTER)
    outcome = session.run()
    first, second = outcome[h0], outcome[h1]

    # Same question, same combined answer — without a second posting.
    assert second.as_dicts() == first.as_dicts()
    assert second.total_cost == 0.0
    assert second.hit_count == 0
    assert h1.cross_cache_hits > 0
    assert h1.cross_assignments_shared > 0
    assert h0.cross_cache_hits == 0  # the first asker owns its entries
    assert outcome.stats.cross_assignments_shared == h1.cross_assignments_shared
    assert outcome.stats.cost_saved == pytest.approx(
        first.total_cost, abs=1e-9
    )  # q1 reused exactly what q0 paid for
    # Nothing was posted under q1's client id.
    assert all(cid != "q1" for cid, _ in market.submissions)
    assert outcome.stats.groups_posted["q1"] == 0
    assert "cross_query_cache_hits" in outcome.explain()


def test_cache_view_attributes_cross_hits():
    from repro.hits.hit import FilterPayload, FilterQuestion, HIT

    shared = TaskCache()
    owners: dict[str, str] = {}
    view_a = TaskCacheView(shared=shared, owner="a", owners=owners)
    view_b = TaskCacheView(shared=shared, owner="b", owners=owners)
    hit = HIT(hit_id="h1", payloads=(FilterPayload("t", (FilterQuestion("x"),)),))

    assert view_a.lookup(hit) is None
    view_a.store(hit, ())
    assert view_a.lookup(hit) == ()
    assert view_a.cross_hits == 0  # own entry
    assert view_b.lookup(hit) == ()
    assert view_b.cross_hits == 1  # borrowed from a
    assert shared.hits == 2 and shared.misses == 1


# ---------------------------------------------------------------------------
# 4. Isolation and fairness
# ---------------------------------------------------------------------------


def test_budget_abort_in_one_query_leaves_sibling_untouched():
    # At n=20, q0's filter pre-flight projects $1.50 and actually charges
    # $0.30; the sort pre-flight then projects $0.30 + $1.95. A $1.80 cap
    # funds the filter but aborts the sort — mid-query, money spent.
    session, _, h0, h1 = disjoint_session(n=20, budgets=(1.8, None))
    outcome = session.run()

    assert isinstance(h0.error, BudgetExceededError)
    assert "q0" in str(h0.error)
    assert h1.error is None and h1.result is not None
    assert outcome.errors.keys() == {"q0"}
    with pytest.raises(BudgetExceededError):
        outcome[h0]

    # The sibling's rows/ledger are identical to a run where q0 is funded.
    funded_session, _, _, funded_h1 = disjoint_session(n=20, budgets=(None, None))
    funded = funded_session.run()
    assert not funded.errors
    assert outcome[h1].as_dicts() == funded[funded_h1].as_dicts()
    assert outcome[h1].total_cost == funded[funded_h1].total_cost
    assert h1.ledger.breakdown() == funded_h1.ledger.breakdown()

    # The aborted query paid for (only) the filter work it had posted.
    assert h0.ledger.total_cost == pytest.approx(0.3)
    assert h0.result is None


def test_round_robin_admission_does_not_starve_small_query():
    """q1 (one filter phase) must reach the marketplace before the much
    larger q0 (filter + sort phases) has finished posting."""
    session, market, h0, h1 = disjoint_session()
    outcome = session.run()
    assert not outcome.errors
    keys = [key for key, _ in outcome.stats.admission_log]
    assert set(keys) == {"q0", "q1"}
    assert keys.index("q1") < len(keys) - 1 - keys[::-1].index("q0")
    assert all(count > 0 for count in outcome.stats.groups_posted.values())


def test_failed_plan_in_one_query_leaves_sibling_running():
    session, _, _, _ = disjoint_session()
    bad = session.submit("SELECT nope.x FROM does_not_exist nope")
    outcome = session.run()
    assert bad.error is not None
    assert outcome.errors.keys() == {"q2"}
    assert outcome[0].rows and outcome[1].rows


# ---------------------------------------------------------------------------
# Session ergonomics and fallbacks
# ---------------------------------------------------------------------------


def test_session_is_one_shot():
    session, _, _, _ = disjoint_session()
    session.run()
    with pytest.raises(ExecutionError):
        session.run()
    with pytest.raises(ExecutionError):
        session.submit("SELECT sq0.label FROM sq0")


def test_result_lookup_prefers_keys_over_labels():
    """A label that collides with another query's key must not shadow it."""
    session, _, h0, h1 = disjoint_session()
    h0.label = "q1"  # now h0's label equals h1's key
    outcome = session.run()
    assert outcome["q1"] is h1.result  # the key's owner wins
    assert outcome[h0] is h0.result


def test_empty_session_rejected():
    truth = GroundTruth()
    session = EngineSession(platform=SimulatedMarketplace(truth, seed=0))
    with pytest.raises(PlanError):
        session.run()


def test_engine_session_helper_shares_catalog():
    data = squares_dataset(n=6, seed=3)
    market = SimulatedMarketplace(data.truth, seed=3)
    engine = Qurk(platform=market)
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    session = engine.session()
    handle = session.submit(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )
    outcome = session.run()
    assert len(outcome[handle].rows) == 6


def test_blocking_platform_falls_back_to_serial():
    """A platform without the multi-client API still serves sessions —
    serially, through its blocking post path."""

    from repro.experiments.harness import BlockingPlatform

    data = squares_dataset(n=6, seed=3)
    market = SimulatedMarketplace(data.truth, seed=3)
    session = EngineSession(platform=BlockingPlatform(market))
    session.register_table(data.table)
    session.define(data.task_dsl)
    query = "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    h0, h1 = session.submit(query), session.submit(query)
    outcome = session.run()
    assert outcome.stats.mode == "serial"
    assert outcome[h0].rows == outcome[h1].rows
    assert outcome[h1].total_cost == 0.0  # dedup works without overlap too


# ---------------------------------------------------------------------------
# Cache-aware budget pre-flight
# ---------------------------------------------------------------------------


def test_cached_work_does_not_count_against_budget():
    """A query whose answers are already in the shared cache must not be
    rejected by a budget pre-flight that assumes it will re-post them."""
    data = squares_dataset(n=6, seed=3)
    query = "SELECT squares.label FROM squares ORDER BY squareSorter(img)"

    def run_pair(shared_cache):
        market = SimulatedMarketplace(data.truth, seed=3)
        session = EngineSession(platform=market, cache=shared_cache)
        session.register_table(data.table)
        session.define(data.task_dsl)
        first = session.submit(query)
        # Far below the query's real cost — only fundable via the cache.
        second = session.submit(
            query, config=session.config.with_overrides(max_budget=0.01)
        )
        return session.run(), first, second

    outcome, first, second = run_pair(TaskCache())
    assert first.error is None
    assert second.error is None, second.error
    assert outcome[second].total_cost == 0.0

    # Control: without the first query having warmed the cache, the same
    # budget genuinely cannot fund the query.
    market = SimulatedMarketplace(data.truth, seed=3)
    control = EngineSession(platform=market)
    control.register_table(data.table)
    control.define(data.task_dsl)
    broke = control.submit(
        query, config=control.config.with_overrides(max_budget=0.01)
    )
    control_outcome = control.run()
    assert isinstance(broke.error, BudgetExceededError)
    assert control_outcome.stats.failed == 1
