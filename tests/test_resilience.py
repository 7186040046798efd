"""Fault injection and the resilience layer (retry/repost/degrade).

Covers the robustness PR's contract end to end:

* :class:`~repro.crowd.faults.FaultPlan` — validation, determinism of the
  injected fault overlay (same seed ⇒ same faults, under both dispatch
  implementations), and inertness of zero-rate plans;
* transient platform errors — replayable injection, the Task Manager's
  retry loop, and the circuit breaker;
* repost recovery — unfilled/abandoned slots reposted with backoff and
  optional price escalation, capped by ``max_reposts``/``retry_deadline``;
* degradation — k-of-n quorum accounting, the all-slots-lost hang guard
  (:class:`~repro.errors.ExecutionError`, never a silent loop), and
  query-level graceful completion with ``degradation_summary``;
* blocking platforms — reposts go out through ``post_hit_group`` when the
  platform cannot keep groups outstanding;
* session isolation — a faulted query degrades alone; siblings run clean.
"""

from __future__ import annotations

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import FaultPlan, GroundTruth, SimulatedMarketplace
from repro.crowd.faults import GroupFaultRecord
from repro.datasets import celebrity_dataset, movie_dataset
from repro.errors import (
    ExecutionError,
    MarketplaceError,
    QurkError,
    TransientMarketplaceError,
)
from repro.experiments.end_to_end import QUERY_WITH_FILTER
from repro.experiments.harness import BlockingPlatform
from repro.hits.hit import FilterPayload, FilterQuestion
from repro.hits.manager import TaskManager, collect_pending
from repro.hits.resilience import (
    CircuitBreaker,
    ResilienceState,
    RetryPolicy,
    build_resilience,
    marketplace_faults_active,
)
from repro.joins.batching import JoinInterface
from repro.util import resilience


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def filter_truth(items) -> GroundTruth:
    truth = GroundTruth()
    truth.add_filter_task("keep", {item: True for item in items})
    return truth


def filter_units(items):
    return [[FilterPayload("keep", (FilterQuestion(item),))] for item in items]


def make_market(seed=3, n=10, faults=None):
    items = [f"img://item/{i}" for i in range(n)]
    return items, SimulatedMarketplace(filter_truth(items), seed=seed, faults=faults)


def submit_group(market, items, assignments=3, manager=None):
    manager = manager or TaskManager(market)
    hits = manager.build_hits(
        filter_units(items), batch_size=5, assignments=assignments, label="t"
    )
    return manager, market.submit_hit_group(hits, group_id="g")


ISFEMALE_DSL = (
    'TASK isFemale(field) TYPE Filter:\n'
    '    Prompt: "<img src=\'%s\'>", tuple[field]\n'
    '    YesText: "Female"\n'
    '    NoText: "Male"\n'
)


def celebrity_engine(seed=1, n=12, faults=None, **config):
    data = celebrity_dataset(n=n, seed=seed)
    data.truth.add_filter_task(
        "isFemale",
        {
            ref: data.attributes[ref]["gender"] == "Female"
            for ref in data.celeb_refs
        },
    )
    market = SimulatedMarketplace(data.truth, seed=seed, faults=faults)
    engine = Qurk(platform=market, config=ExecutionConfig(**config))
    engine.register_table(data.celebs)
    engine.register_table(data.photos)
    engine.define(data.task_dsl)
    engine.define(ISFEMALE_DSL)
    return engine, market


FILTER_QUERY = "SELECT c.name FROM celeb c WHERE isFemale(c)"


# ---------------------------------------------------------------------------
# 1. FaultPlan validation and gating
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abandonment_rate": -0.1},
        {"abandonment_rate": 1.5},
        {"expiration_rate": 2.0},
        {"straggler_rate": -1.0},
        {"spam_rate": 1.01},
        {"transient_error_rate": -0.5},
        {"expiration_lifetime_fraction": 0.0},
        {"expiration_lifetime_fraction": 1.5},
        {"straggler_factor": 0.5},
    ],
)
def test_fault_plan_rejects_invalid_parameters(kwargs):
    with pytest.raises(ValueError):
        FaultPlan(**kwargs)


def test_fault_plan_activity_properties():
    assert not FaultPlan().active
    assert not FaultPlan().disrupts_dispatch
    assert FaultPlan(transient_error_rate=0.1).active
    assert not FaultPlan(transient_error_rate=0.1).disrupts_dispatch
    assert FaultPlan(abandonment_rate=0.1).disrupts_dispatch


def test_marketplace_faults_active_unwraps_facades():
    from repro.crowd.marketplace import MarketplaceClient

    items, market = make_market(faults=FaultPlan(abandonment_rate=0.2))
    assert marketplace_faults_active(market)
    assert marketplace_faults_active(MarketplaceClient(market, client_id="c0"))

    class Wrapper:
        def __init__(self, inner):
            self.inner = inner

    assert marketplace_faults_active(Wrapper(market))
    _, clean = make_market()
    assert not marketplace_faults_active(clean)
    _, zero = make_market(faults=FaultPlan())
    assert not marketplace_faults_active(zero)


def test_build_resilience_requires_toggle_and_active_faults():
    config = ExecutionConfig()
    _, faulted = make_market(faults=FaultPlan(abandonment_rate=0.2))
    _, clean = make_market()
    assert build_resilience(config, faulted) is not None
    assert build_resilience(config, clean) is None
    with resilience.forced(False):
        assert build_resilience(config, faulted) is None
    # ExecutionConfig.resilience overrides the toggle in both directions.
    with resilience.forced(False):
        on = build_resilience(ExecutionConfig(resilience=True), faulted)
        assert on is not None
    assert build_resilience(ExecutionConfig(resilience=False), faulted) is None
    # Config knobs flow into the policy.
    state = build_resilience(
        ExecutionConfig(retry_deadline=3600.0, max_reposts=4, backoff_base=60.0,
                        degrade_quorum=0.8),
        faulted,
    )
    assert state.policy.retry_deadline == 3600.0
    assert state.policy.max_reposts == 4
    assert state.policy.backoff_base == 60.0
    assert state.policy.degrade_quorum == 0.8


# ---------------------------------------------------------------------------
# 2. Fault overlay determinism
# ---------------------------------------------------------------------------


def test_zero_rate_plan_is_bit_identical_to_no_plan():
    items, clean = make_market(seed=5)
    _, zeroed = make_market(seed=5, faults=FaultPlan())
    _, t_clean = submit_group(clean, items)
    _, t_zero = submit_group(zeroed, items)
    assert t_clean.assignments == t_zero.assignments
    assert t_clean.finish_time == t_zero.finish_time
    assert t_zero.faults is None


def test_fault_overlay_is_deterministic_run_to_run():
    plan = FaultPlan(abandonment_rate=0.3, spam_rate=0.2, straggler_rate=0.2)
    traces = []
    for _ in range(2):
        items, market = make_market(seed=7, faults=plan)
        _, ticket = submit_group(market, items)
        traces.append((ticket.assignments, ticket.faults, ticket.finish_time))
    assert traces[0] == traces[1]


FAULTED_GROUP_SHA256 = "eab2ae33e61885e72f2914344d393d74656ece99cd0371ead17c080b5d80cf11"
"""sha256 of ``repr`` of the faulted seed-7 group's assignments, recorded at
commit 2275d16, where the fast and the retired reference dispatch loops
produced this same overlay."""


def test_fault_overlay_identical_under_both_dispatch_implementations():
    """The overlay draws from the group stream's child, so the faulted group
    is the one both retired dispatch implementations produced."""
    import hashlib

    plan = FaultPlan(abandonment_rate=0.3, spam_rate=0.2, straggler_rate=0.2)
    items, market = make_market(seed=7, faults=plan)
    _, ticket = submit_group(market, items)
    assert ticket.faults == GroupFaultRecord(
        abandoned=1, expired_slots=0, stragglers=0, spammed=2
    )
    assert ticket.faults.dropped > 0  # the plan actually struck
    assert ticket.finish_time == 39.49319170186433
    digest = hashlib.sha256(repr(ticket.assignments).encode()).hexdigest()
    assert digest == FAULTED_GROUP_SHA256


def test_abandonment_drops_assignments_and_uncounts_work():
    items, market = make_market(seed=7, faults=FaultPlan(abandonment_rate=1.0))
    _, ticket = submit_group(market, items)
    assert ticket.assignments == ()
    assert market.stats.abandoned_assignments > 0
    assert market.stats.assignments_completed == 0
    assert len(ticket.incomplete_hit_ids) == 2  # 10 items / batch 5
    assert ticket.faults.abandoned == market.stats.abandoned_assignments


def test_expiration_drops_late_accepted_slots():
    plan = FaultPlan(expiration_rate=1.0, expiration_lifetime_fraction=0.5)
    items, market = make_market(seed=7, faults=plan)
    _, ticket = submit_group(market, items)
    assert market.stats.expired_slots > 0
    assert ticket.faults.expired_slots == market.stats.expired_slots
    # Survivors were all accepted inside the truncated lifetime; the clean
    # run's accept window extends past it.
    items2, clean = make_market(seed=7)
    _, full = submit_group(clean, items2)
    assert len(ticket.assignments) < len(full.assignments)
    span = max(a.accept_time for a in full.assignments) - full.post_time
    lifetime = full.post_time + span * 0.5
    assert all(a.accept_time <= lifetime for a in ticket.assignments)


def test_spam_overlay_replaces_answers_not_slots():
    items, market = make_market(seed=7, faults=FaultPlan(spam_rate=1.0))
    _, spammed = submit_group(market, items)
    items2, clean = make_market(seed=7)
    _, honest = submit_group(clean, items2)
    assert len(spammed.assignments) == len(honest.assignments)
    assert market.stats.spam_assignments == len(spammed.assignments)
    # Same slots and timings, different (garbage) answers somewhere.
    assert [a.assignment_id for a in spammed.assignments] == [
        a.assignment_id for a in honest.assignments
    ]
    assert any(
        s.answers != h.answers
        for s, h in zip(spammed.assignments, honest.assignments)
    )


def test_straggler_stretches_submit_times():
    plan = FaultPlan(straggler_rate=1.0, straggler_factor=8.0)
    items, market = make_market(seed=7, faults=plan)
    _, slow = submit_group(market, items)
    items2, clean = make_market(seed=7)
    _, fast = submit_group(clean, items2)
    assert market.stats.straggler_assignments == len(slow.assignments)
    assert slow.finish_time > fast.finish_time
    for s, f in zip(slow.assignments, fast.assignments):
        assert s.accept_time == f.accept_time
        assert s.submit_time - s.accept_time == pytest.approx(
            8.0 * (f.submit_time - f.accept_time)
        )


def test_faults_ignored_when_toggle_disabled():
    plan = FaultPlan(abandonment_rate=1.0, transient_error_rate=1.0)
    with resilience.forced(False):
        items, market = make_market(seed=7, faults=plan)
        _, ticket = submit_group(market, items)
    assert len(ticket.assignments) > 0
    assert market.stats.abandoned_assignments == 0
    assert market.stats.transient_errors == 0
    assert ticket.faults is None


# ---------------------------------------------------------------------------
# 3. Transient errors, retries, circuit breaker
# ---------------------------------------------------------------------------


def test_transient_submit_failure_commits_no_state():
    plan = FaultPlan(transient_error_rate=1.0)
    items, market = make_market(seed=7, faults=plan)
    manager = TaskManager(market)
    hits = manager.build_hits(
        filter_units(items), batch_size=5, assignments=3, label="t"
    )
    with pytest.raises(TransientMarketplaceError):
        market.submit_hit_group(hits, group_id="g")
    assert market.stats.hits_posted == 0
    assert market.stats.transient_errors == 1
    assert market.outstanding_count == 0


def test_transient_harvest_failure_leaves_ticket_outstanding():
    items, market = make_market(seed=7)
    manager, ticket = submit_group(market, items)
    market.faults = FaultPlan(transient_error_rate=1.0)
    with pytest.raises(TransientMarketplaceError):
        market.harvest(ticket)
    assert market.outstanding_count == 1
    market.faults = None
    assert len(market.harvest(ticket)) > 0


def test_manager_retries_transients_and_counts_them():
    plan = FaultPlan(transient_error_rate=0.4)
    items, market = make_market(seed=11, faults=plan)
    state = ResilienceState(RetryPolicy())
    manager = TaskManager(market, resilience=state)
    outcome = manager.run_units(
        filter_units(items), batch_size=5, assignments=3, label="t"
    )
    assert outcome.assignment_count > 0
    assert state.summary.transient_retries > 0
    assert market.stats.transient_errors == state.summary.transient_retries


def test_circuit_breaker_opens_after_consecutive_transients():
    plan = FaultPlan(transient_error_rate=1.0)
    items, market = make_market(seed=7, faults=plan)
    state = ResilienceState(RetryPolicy(circuit_threshold=3))
    manager = TaskManager(market, resilience=state)
    with pytest.raises(MarketplaceError, match="circuit breaker"):
        manager.run_units(
            filter_units(items), batch_size=5, assignments=3, label="t"
        )
    assert state.summary.circuit_opens == 1
    assert state.summary.transient_retries == 3
    assert state.breaker.is_open


def test_circuit_breaker_half_open_probe():
    breaker = CircuitBreaker(threshold=2, cooldown=100.0)
    assert breaker.allow(0.0)
    assert not breaker.record_failure(0.0)
    assert breaker.record_failure(1.0)  # opened
    assert not breaker.allow(50.0)
    assert breaker.allow(101.0)  # half-open probe
    breaker.record_success()
    assert not breaker.is_open
    assert breaker.failures == 0


# ---------------------------------------------------------------------------
# 4. Repost recovery and degradation accounting
# ---------------------------------------------------------------------------


def test_repost_recovers_abandoned_slots():
    plan = FaultPlan(abandonment_rate=0.5)
    items, market = make_market(seed=7, n=20, faults=plan)
    state = ResilienceState(RetryPolicy(max_reposts=3))
    manager = TaskManager(market, resilience=state)
    outcome = manager.run_units(
        filter_units(items), batch_size=5, assignments=3, label="t"
    )
    assert state.summary.reposts > 0
    assert state.summary.recovered_assignments > 0
    assert outcome.assignment_count > 0
    # The ledger charges exactly the assignments that survived, original
    # and recovered alike.
    assert manager.ledger.total_assignments == outcome.assignment_count


def test_repost_backoff_delays_recovery_rounds():
    policy = RetryPolicy(backoff_base=120.0, backoff_factor=2.0)
    assert policy.backoff_for(1) == 120.0
    assert policy.backoff_for(2) == 240.0
    assert policy.backoff_for(3) == 480.0
    plan = FaultPlan(abandonment_rate=0.5)
    items, market = make_market(seed=7, n=20, faults=plan)
    state = ResilienceState(RetryPolicy(max_reposts=2, backoff_base=10_000.0))
    manager = TaskManager(market, resilience=state)
    outcome = manager.run_units(
        filter_units(items), batch_size=5, assignments=3, label="t"
    )
    if state.summary.reposts:
        # Recovery rounds happen after the backoff, pushing the clock out.
        assert outcome.elapsed_seconds > 10_000.0


def test_retry_deadline_stops_reposting():
    plan = FaultPlan(abandonment_rate=0.5)
    items, market = make_market(seed=7, n=20, faults=plan)
    # Backoff alone blows the deadline: no repost is ever attempted.
    state = ResilienceState(
        RetryPolicy(max_reposts=5, backoff_base=1000.0, retry_deadline=500.0)
    )
    manager = TaskManager(market, resilience=state)
    manager.run_units(filter_units(items), batch_size=5, assignments=3, label="t")
    assert state.summary.reposts == 0
    assert state.summary.unfilled_assignments > 0


def test_price_escalation_charges_extra_cost():
    plan = FaultPlan(abandonment_rate=0.5)
    items, market = make_market(seed=7, n=20, faults=plan)
    state = ResilienceState(RetryPolicy(max_reposts=3, price_escalation=0.5))
    manager = TaskManager(market, resilience=state)
    manager.run_units(filter_units(items), batch_size=5, assignments=3, label="t")
    assert state.summary.recovered_assignments > 0
    assert manager.ledger.total_extra_cost > 0
    base = manager.ledger.pricing.cost(manager.ledger.total_assignments)
    assert manager.ledger.total_cost == pytest.approx(
        base + manager.ledger.total_extra_cost
    )


def test_quorum_degradation_flags_operator():
    plan = FaultPlan(abandonment_rate=0.6)
    items, market = make_market(seed=13, n=20, faults=plan)
    # No reposts and a full quorum requirement: shortfalls must be flagged.
    state = ResilienceState(RetryPolicy(max_reposts=0, degrade_quorum=1.0))
    manager = TaskManager(market, resilience=state)
    outcome = manager.run_units(
        filter_units(items), batch_size=5, assignments=3, label="quorumtask"
    )
    assert state.summary.unfilled_assignments > 0
    assert state.summary.degraded_groups > 0
    assert "quorumtask" in state.summary.degraded_operators
    # Degraded, not dead: the k-of-n votes that did arrive are returned.
    assert outcome.assignment_count > 0


def test_all_slots_lost_raises_execution_error_not_hang():
    """A group whose every slot is abandoned can never finish; the manager
    must surface a clear ExecutionError instead of looping on reposts."""
    plan = FaultPlan(abandonment_rate=1.0)
    items, market = make_market(seed=7, faults=plan)
    state = ResilienceState(RetryPolicy(max_reposts=2))
    manager = TaskManager(market, resilience=state)
    with pytest.raises(ExecutionError, match="can never finish"):
        manager.run_units(
            filter_units(items), batch_size=5, assignments=3, label="t"
        )


def test_collect_pending_refuses_uncollectable_group():
    """The hang guard: a pending handle that stays unresolved after
    result() is a bug, reported as ExecutionError rather than a wedge."""

    class StuckPending:
        finish_time = 0.0
        done = False

        def result(self):
            return None

    with pytest.raises(ExecutionError, match="did not resolve"):
        collect_pending([StuckPending()])


def test_strict_behaviour_unchanged_without_resilience_state():
    """No state (fault-free marketplace or toggle off) ⇒ the historical
    strict contract: unfilled HITs raise HITUncompletedError."""
    from repro.errors import HITUncompletedError

    plan = FaultPlan(abandonment_rate=1.0)
    items, market = make_market(seed=7, faults=plan)
    manager = TaskManager(market)  # no resilience state
    with pytest.raises(HITUncompletedError):
        manager.run_units(
            filter_units(items), batch_size=5, assignments=3, label="t"
        )


def test_pipelined_pending_batches_recover_too():
    plan = FaultPlan(abandonment_rate=0.5)
    items, market = make_market(seed=7, n=20, faults=plan)
    state = ResilienceState(RetryPolicy(max_reposts=3))
    manager = TaskManager(market, resilience=state)
    pending = manager.begin_units(
        filter_units(items), batch_size=5, assignments=3, label="t"
    )
    outcome = pending.result()
    assert pending.done
    assert outcome.assignment_count > 0
    assert state.summary.reposts > 0


# ---------------------------------------------------------------------------
# 5. Error taxonomy (regression: harvest raised a bare ValueError)
# ---------------------------------------------------------------------------


def test_harvest_unknown_ticket_raises_marketplace_error():
    items, market = make_market(seed=1)
    _, ticket = submit_group(market, items)
    market.harvest(ticket)
    with pytest.raises(MarketplaceError) as excinfo:
        market.harvest(ticket)
    assert isinstance(excinfo.value, QurkError)
    assert not isinstance(excinfo.value, ValueError)


def test_transient_error_is_a_marketplace_error():
    assert issubclass(TransientMarketplaceError, MarketplaceError)
    assert issubclass(TransientMarketplaceError, QurkError)


# ---------------------------------------------------------------------------
# 6. Query-level graceful degradation
# ---------------------------------------------------------------------------


def test_faulted_query_completes_with_degradation_summary():
    plan = FaultPlan(abandonment_rate=0.3, expiration_rate=0.1)
    engine, market = celebrity_engine(faults=plan)
    result = engine.execute(FILTER_QUERY)
    summary = result.degradation_summary
    assert summary is not None
    assert summary["abandoned_assignments"] == market.stats.abandoned_assignments
    assert summary["expired_slots"] == market.stats.expired_slots
    assert summary["abandoned_assignments"] > 0
    assert "aborted" not in summary
    if summary["reposts"] or summary["recovered_assignments"]:
        assert "resilience:" in result.explain()


def test_fault_free_query_has_no_degradation_summary():
    engine, _ = celebrity_engine()
    result = engine.execute(FILTER_QUERY)
    assert result.degradation_summary is None
    assert "resilience:" not in result.explain()


def test_budget_abort_degrades_gracefully_with_partial_rows():
    plan = FaultPlan(abandonment_rate=0.2)
    engine, _ = celebrity_engine(faults=plan, max_budget=0.02)
    result = engine.execute(FILTER_QUERY)  # must not raise
    summary = result.degradation_summary
    assert summary is not None
    assert "aborted" in summary
    assert "BudgetExceededError" in summary["aborted"]
    assert "aborted" in result.explain()


def test_budget_abort_still_raises_without_faults():
    from repro.errors import BudgetExceededError

    engine, _ = celebrity_engine(max_budget=0.02)
    with pytest.raises(BudgetExceededError):
        engine.execute(FILTER_QUERY)


class GroupLoggingPlatform(BlockingPlatform):
    """A blocking platform that records every posted group id."""

    def __init__(self, inner: SimulatedMarketplace) -> None:
        super().__init__(inner)
        self.group_ids: list[str | None] = []

    def post_hit_group(self, hits, group_id=None):
        self.group_ids.append(group_id)
        return super().post_hit_group(hits, group_id=group_id)


def test_blocking_platform_repost_recovery_pin():
    """Reposts on a platform without ``submit_hit_group``/``harvest`` go
    out as blocking ``post_hit_group`` calls. Pinned on the optimized
    movie query (seed 0, 20% abandonment)."""
    data = movie_dataset(seed=0)
    market = SimulatedMarketplace(
        data.truth, seed=0, faults=FaultPlan(abandonment_rate=0.2)
    )
    platform = GroupLoggingPlatform(market)
    engine = Qurk(
        platform=platform,
        config=ExecutionConfig(
            join_interface=JoinInterface.SMART,
            grid_rows=5,
            grid_cols=5,
            use_feature_filters=True,
            generative_batch_size=5,
            sort_method="rate",
            compare_group_size=5,
            rate_batch_size=5,
        ),
    )
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    result = engine.execute(QUERY_WITH_FILTER)

    assert len(result.rows) == 38
    assert result.hit_count == 137
    assert result.assignment_count == 379
    assert result.total_cost == pytest.approx(5.685)
    summary = result.degradation_summary
    assert summary["reposts"] == 8
    assert summary["recovered_assignments"] == 78
    assert "aborted" not in summary
    reposts = [gid for gid in platform.group_ids if ".repost" in gid]
    assert len(reposts) == summary["reposts"]


# ---------------------------------------------------------------------------
# 7. Session isolation
# ---------------------------------------------------------------------------


def celebrity_session(faults=None, seed=1, n=12, **config):
    data = celebrity_dataset(n=n, seed=seed)
    data.truth.add_filter_task(
        "isFemale",
        {
            ref: data.attributes[ref]["gender"] == "Female"
            for ref in data.celeb_refs
        },
    )
    market = SimulatedMarketplace(data.truth, seed=seed, faults=faults)
    session = EngineSession(platform=market, config=ExecutionConfig(**config))
    session.register_table(data.celebs)
    session.register_table(data.photos)
    session.define(data.task_dsl)
    session.define(ISFEMALE_DSL)
    return session, market


def test_session_queries_degrade_independently():
    plan = FaultPlan(abandonment_rate=0.3)
    session, market = celebrity_session(faults=plan)
    h0 = session.submit(FILTER_QUERY)
    # Sibling with a starvation budget: aborts, absorbed into partial rows.
    h1 = session.submit(
        "SELECT c.name FROM celeb c WHERE isFemale(c) AND gender(c.img) = 'Female'",
        config=ExecutionConfig(max_budget=0.001),
    )
    outcome = session.run()
    assert not outcome.errors
    ok = outcome[h0]
    degraded = outcome[h1]
    assert ok.degradation_summary is not None
    assert "aborted" not in ok.degradation_summary
    assert degraded.degradation_summary is not None
    assert "aborted" in degraded.degradation_summary
    # The healthy sibling kept a real answer (no abort, actual rows).
    assert len(ok.rows) > 0


def test_session_fault_free_trace_untouched_by_resilience():
    session_on, market_on = celebrity_session()
    h_on = session_on.submit(FILTER_QUERY)
    result_on = session_on.run()[h_on]
    with resilience.forced(False):
        session_off, market_off = celebrity_session()
        h_off = session_off.submit(FILTER_QUERY)
        result_off = session_off.run()[h_off]
    assert result_on.as_dicts() == result_off.as_dicts()
    assert result_on.total_cost == result_off.total_cost
    assert market_on.clock_seconds == market_off.clock_seconds
    assert result_on.degradation_summary is None
    assert result_off.degradation_summary is None
