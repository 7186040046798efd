"""The pipelined executor's contract (§2.6 event-driven execution).

Three promises, each enforced here:

1. **Latency-only pipelining.** For a fixed seed, a platform that keeps
   HIT groups outstanding and a blocking one produce identical rows,
   HIT/assignment counts, dollars, and per-qid vote streams on every
   example-workload query — the scheduler fixes the posting order, and
   overlap moves only virtual time.
2. **Virtual-time order.** The marketplace's multi-client API keeps HIT
   groups outstanding over overlapping virtual intervals and harvests them
   in finish-time order; the shared clock only ever moves forward.
3. **Bounded queues.** Rows flow between computed operators in chunks
   through bounded queues; occupancy never exceeds the bound and a lagging
   consumer stalls its producer (back-pressure).

One scheduler runs on every platform; the platform decides only the
posting shape. A marketplace with the multi-client API keeps groups
outstanding, and the same marketplace behind
:class:`~repro.experiments.harness.BlockingPlatform` posts each group
blocking, which must reproduce the golden trace exactly — including the
virtual clock.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.core.plan import ScanNode
from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.errors import MarketplaceError
from repro.datasets import (
    animals_dataset,
    celebrity_dataset,
    movie_dataset,
    squares_dataset,
)
from repro.experiments.end_to_end import QUERY_WITH_FILTER
from repro.experiments.harness import BlockingPlatform
from repro.hits.hit import FilterPayload, FilterQuestion
from repro.hits.manager import TaskManager
from repro.joins.batching import JoinInterface

GOLDEN_PATH = Path(__file__).parent / "golden" / "determinism_trace.json"


class RecordingMarketplace(SimulatedMarketplace):
    """Simulated marketplace that logs postings and harvested assignments.

    ``post_hit_group`` routes through ``submit_hit_group``/``harvest``, so
    overriding those two records both posting shapes through one code path.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.group_sequence: list[str | None] = []
        self.harvested = []

    def submit_hit_group(self, hits, group_id=None, post_time=None):
        self.group_sequence.append(group_id)
        return super().submit_hit_group(
            hits, group_id=group_id, post_time=post_time
        )

    def harvest(self, ticket):
        assignments = super().harvest(ticket)
        self.harvested.extend(assignments)
        return assignments

    def platform(self, blocking: bool):
        """Itself, or itself behind the blocking adapter."""
        return BlockingPlatform(self) if blocking else self


def vote_stream(market: RecordingMarketplace) -> list[tuple]:
    """Per-qid votes in dispatch order (assignment ids are dispatch-ordered,
    identical across platforms; harvest order is not, so sort)."""
    ordered = sorted(market.harvested, key=lambda a: a.assignment_id)
    return [
        (a.assignment_id, a.hit_id, a.worker_id, qid, repr(value))
        for a in ordered
        for qid, value in a.answers.items()
    ]


# ---------------------------------------------------------------------------
# Workloads: one builder per example query family
# ---------------------------------------------------------------------------


def squares_engine(seed=7, n=15, blocking=False, **config):
    data = squares_dataset(n=n, seed=seed)
    market = RecordingMarketplace(data.truth, seed=seed)
    engine = Qurk(platform=market.platform(blocking), config=ExecutionConfig(**config))
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return engine, market


def animals_engine(seed=11, blocking=False, **config):
    data = animals_dataset()
    market = RecordingMarketplace(data.truth, seed=seed)
    engine = Qurk(platform=market.platform(blocking), config=ExecutionConfig(**config))
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return engine, market


ISFEMALE_DSL = (
    'TASK isFemale(field) TYPE Filter:\n'
    '    Prompt: "<img src=\'%s\'>", tuple[field]\n'
    '    YesText: "Female"\n'
    '    NoText: "Male"\n'
)


def celebrity_engine(seed=1, n=12, blocking=False, **config):
    data = celebrity_dataset(n=n, seed=seed)
    data.truth.add_filter_task(
        "isFemale",
        {
            ref: data.attributes[ref]["gender"] == "Female"
            for ref in data.celeb_refs
        },
    )
    market = RecordingMarketplace(data.truth, seed=seed)
    engine = Qurk(platform=market.platform(blocking), config=ExecutionConfig(**config))
    engine.register_table(data.celebs)
    engine.register_table(data.photos)
    engine.define(data.task_dsl)
    engine.define(ISFEMALE_DSL)
    return engine, market


def movie_engine(seed=0, blocking=False, **overrides):
    data = movie_dataset(seed=seed)
    market = RecordingMarketplace(data.truth, seed=seed)
    config = ExecutionConfig(
        join_interface=JoinInterface.SMART,
        grid_rows=5,
        grid_cols=5,
        use_feature_filters=True,
        generative_batch_size=5,
        sort_method="rate",
        compare_group_size=5,
        rate_batch_size=5,
        **overrides,
    )
    engine = Qurk(platform=market.platform(blocking), config=config)
    engine.register_table(data.actors)
    engine.register_table(data.scenes)
    engine.define(data.task_dsl)
    return engine, market


EXAMPLE_WORKLOADS = {
    "sort-compare": (
        squares_engine,
        {"sort_method": "compare"},
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)",
    ),
    "sort-rate-limit": (
        squares_engine,
        {"sort_method": "rate"},
        "SELECT squares.label FROM squares ORDER BY squareSorter(img) DESC LIMIT 3",
    ),
    "sort-hybrid": (
        squares_engine,
        {"sort_method": "hybrid", "hybrid_iterations": 6, "hybrid_strategy": "window"},
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)",
    ),
    "crowd-filter": (
        celebrity_engine,
        {},
        "SELECT c.name FROM celeb c WHERE isFemale(c)",
    ),
    "generative-select": (
        celebrity_engine,
        {},
        "SELECT c.name, gender(c.img) FROM celeb c",
    ),
    "filtered-smart-join": (
        celebrity_engine,
        {"join_interface": JoinInterface.SMART, "grid_rows": 3, "grid_cols": 3},
        "SELECT c.name, p.id FROM celeb c JOIN photos p ON samePerson(c.img, p.img) "
        "AND POSSIBLY gender(c.img) = gender(p.img) "
        "AND POSSIBLY skinColor(c.img) = skinColor(p.img)",
    ),
    "table5-optimized": (movie_engine, {}, QUERY_WITH_FILTER),
    "grouped-rate-sort": (
        movie_engine,
        {},
        "SELECT a.name, s.img FROM actors a JOIN scenes s ON inScene(a.img, s.img) "
        "AND POSSIBLY numInScene(s.img) = 1 ORDER BY a.name, quality(s.img) DESC",
    ),
}


def run_workload(name: str, blocking: bool):
    builder, overrides, query = EXAMPLE_WORKLOADS[name]
    engine, market = builder(blocking=blocking, **overrides)
    return engine.execute(query), market


def assert_serial_summary(result) -> None:
    """A blocking run's pipeline summary: one group at a time, end to end."""
    summary = result.pipeline_summary
    assert summary["peak_outstanding_groups"] == 1
    assert (
        summary["makespan_seconds"]
        == summary["serial_latency_seconds"]
        == result.elapsed_seconds
    )


# ---------------------------------------------------------------------------
# 1. Pipelining is latency-only
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXAMPLE_WORKLOADS))
def test_blocking_platform_matches_overlapping(name):
    """Rows, costs, posting order, and vote streams identical per workload."""
    pipe_result, pipe_market = run_workload(name, blocking=False)
    ref_result, ref_market = run_workload(name, blocking=True)

    assert pipe_result.as_dicts() == ref_result.as_dicts()
    assert pipe_result.hit_count == ref_result.hit_count
    assert pipe_result.assignment_count == ref_result.assignment_count
    assert pipe_result.total_cost == ref_result.total_cost
    assert pipe_market.group_sequence == ref_market.group_sequence
    assert vote_stream(pipe_market) == vote_stream(ref_market)
    # Overlap can only shorten the virtual critical path, never extend it.
    assert pipe_result.elapsed_seconds <= ref_result.elapsed_seconds + 1e-9
    assert pipe_result.pipeline_summary is not None
    assert_serial_summary(ref_result)
    # The serial counterfactual the overlapping run reports is what the
    # blocking run took; it sums durations measured from other post
    # times, so it agrees up to float rounding.
    assert pipe_result.pipeline_summary["serial_latency_seconds"] == pytest.approx(
        ref_result.elapsed_seconds, rel=1e-12
    )


def test_pipeline_reduces_latency_on_overlapping_workloads():
    """Workloads with independent HIT groups must actually finish earlier."""
    for name in ("table5-optimized", "filtered-smart-join"):
        pipe_result, _ = run_workload(name, blocking=False)
        ref_result, _ = run_workload(name, blocking=True)
        assert pipe_result.elapsed_seconds < ref_result.elapsed_seconds, name
        summary = pipe_result.pipeline_summary
        assert summary["peak_outstanding_groups"] >= 2, name
        assert summary["makespan_seconds"] < summary["serial_latency_seconds"], name


def test_single_crowd_operator_trace_is_exact():
    """One crowd operator ⇒ nothing to overlap ⇒ the *entire* trace —
    votes, assignment timestamps, and the virtual clock — is identical."""
    pipe_result, pipe_market = run_workload("sort-compare", blocking=False)
    ref_result, ref_market = run_workload("sort-compare", blocking=True)
    assert pipe_market.clock_seconds == ref_market.clock_seconds
    assert pipe_result.elapsed_seconds == ref_result.elapsed_seconds
    assert_serial_summary(ref_result)
    pipe_assignments = sorted(pipe_market.harvested, key=lambda a: a.assignment_id)
    ref_assignments = sorted(ref_market.harvested, key=lambda a: a.assignment_id)
    assert [
        (a.assignment_id, a.accept_time, a.submit_time) for a in pipe_assignments
    ] == [(a.assignment_id, a.accept_time, a.submit_time) for a in ref_assignments]


def test_repro_pipeline_off_reproduces_golden_trace():
    """On a blocking platform (the serial run the retired
    ``REPRO_PIPELINE=0`` named) the scheduler reproduces the golden trace
    (votes, clock, ledger) bit-for-bit."""
    golden = json.loads(GOLDEN_PATH.read_text())
    engine, market = movie_engine(seed=0, blocking=True)
    result = engine.execute(QUERY_WITH_FILTER)
    assert_serial_summary(result)
    votes = [
        [qid, a.worker_id, repr(value)]
        for a in market.harvested
        for qid, value in a.answers.items()
    ]
    assert votes == golden["votes"]
    assert market.clock_seconds == golden["clock_seconds"]
    assert len(result.rows) == golden["result_rows"]
    assert engine.ledger.total_hits == golden["ledger"]["total_hits"]
    assert engine.ledger.total_assignments == golden["ledger"]["total_assignments"]


# ---------------------------------------------------------------------------
# 2. Multi-client marketplace: outstanding groups, virtual-time harvest
# ---------------------------------------------------------------------------


def filter_hits(manager: TaskManager, items: list[str], assignments: int = 3):
    units = [
        [FilterPayload("keep", (FilterQuestion(item),))] for item in items
    ]
    return manager.build_hits(units, batch_size=5, assignments=assignments, label="t")


def harvest_truth(items) -> GroundTruth:
    truth = GroundTruth()
    truth.add_filter_task("keep", {item: True for item in items})
    return truth


def test_harvest_next_returns_virtual_time_order():
    items = [f"img://item/{i}" for i in range(30)]
    market = SimulatedMarketplace(harvest_truth(items), seed=3)
    manager = TaskManager(market)
    tickets = {}
    for post_time, batch in ((50.0, items[:10]), (0.0, items[10:20]), (25.0, items[20:])):
        ticket = market.submit_hit_group(
            filter_hits(manager, batch), group_id=f"g@{post_time}", post_time=post_time
        )
        tickets[ticket.ticket_id] = ticket
    assert market.outstanding_count == 3
    assert market.stats.peak_outstanding_groups == 3

    harvested = []
    while True:
        ticket = market.harvest_next()
        if ticket is None:
            break
        harvested.append(ticket)
    finishes = [t.finish_time for t in harvested]
    assert finishes == sorted(finishes)
    assert market.outstanding_count == 0
    assert market.clock_seconds == max(finishes)
    # Groups genuinely overlapped: each started before the previous finished.
    starts = sorted(t.post_time for t in harvested)
    assert starts[1] < min(finishes)


def test_submit_then_harvest_equals_blocking_post():
    """post_hit_group is submit+harvest; a same-seed marketplace pair must
    emit identical assignments either way."""
    items = [f"img://item/{i}" for i in range(12)]

    def run(blocking: bool):
        market = SimulatedMarketplace(harvest_truth(items), seed=5)
        manager = TaskManager(market)
        hits = filter_hits(manager, items)
        if blocking:
            assignments = market.post_hit_group(hits, group_id="g")
        else:
            assignments = market.harvest(
                market.submit_hit_group(hits, group_id="g", post_time=0.0)
            )
        return assignments, market.clock_seconds

    blocking_assignments, blocking_clock = run(blocking=True)
    submitted_assignments, submitted_clock = run(blocking=False)
    assert blocking_assignments == submitted_assignments
    assert blocking_clock == submitted_clock


def test_harvest_rejects_double_collection():
    """Double harvest raises from the marketplace error taxonomy (a
    ``MarketplaceError``, not a bare ``ValueError``) so callers can catch
    platform failures uniformly."""
    items = [f"img://item/{i}" for i in range(3)]
    market = SimulatedMarketplace(harvest_truth(items), seed=1)
    manager = TaskManager(market)
    ticket = market.submit_hit_group(filter_hits(manager, items), group_id="g")
    market.harvest(ticket)
    with pytest.raises(MarketplaceError, match="not.*outstanding"):
        market.harvest(ticket)


def test_clock_never_moves_backwards_under_overlap():
    items = [f"img://item/{i}" for i in range(20)]
    market = SimulatedMarketplace(harvest_truth(items), seed=9)
    manager = TaskManager(market)
    late = market.submit_hit_group(
        filter_hits(manager, items[:10]), group_id="late", post_time=1000.0
    )
    early = market.submit_hit_group(
        filter_hits(manager, items[10:]), group_id="early", post_time=0.0
    )
    market.harvest(late)
    clock_after_late = market.clock_seconds
    market.harvest(early)
    assert market.clock_seconds >= clock_after_late


# ---------------------------------------------------------------------------
# 3. Bounded queues and back-pressure
# ---------------------------------------------------------------------------


def test_queue_occupancy_bounded_and_backpressure_recorded():
    engine, _ = animals_engine(
        pipeline_chunk_size=4, pipeline_queue_chunks=2
    )
    result = engine.execute("SELECT a.name FROM animals a")
    assert len(result) == 27
    scan_node = next(
        node for node in result.plan.walk() if isinstance(node, ScanNode)
    )
    pstats = result.node_stats[id(scan_node)].pipeline
    assert pstats is not None
    assert pstats.queue_capacity == 2
    assert 0 < pstats.queue_peak <= pstats.queue_capacity
    assert pstats.chunks_emitted == 7  # ceil(27 / 4)
    assert pstats.emit_stalls > 0  # the producer outpaced the bounded queue


def grouped_squares_engine(groups=3, per_group=5, seed=7, blocking=False, **config):
    """Squares spread over plain-prefix groups: ``ORDER BY grp, rank(img)``
    crowd-sorts each group independently — the per-group batches overlap
    on a platform that keeps groups outstanding."""
    from repro.relational.schema import Schema
    from repro.relational.table import Table

    data = squares_dataset(n=groups * per_group, seed=seed)
    table = Table("gs", Schema.of("grp text", "label text", "img url"))
    for index, row in enumerate(data.table.scan()):
        table.insert(
            {"grp": f"g{index % groups}", "label": row["label"], "img": row["img"]}
        )
    market = RecordingMarketplace(data.truth, seed=seed)
    engine = Qurk(platform=market.platform(blocking), config=ExecutionConfig(**config))
    engine.register_table(table)
    engine.define(data.task_dsl)
    return engine, market


GROUPED_SORT_QUERY = "SELECT gs.label FROM gs ORDER BY gs.grp, squareSorter(img)"


def test_grouped_sort_overlaps_and_matches_blocking():
    """Sanity for the budget test's workload: the three per-group rate
    batches genuinely overlap, with identical results."""
    engine, market = grouped_squares_engine(sort_method="rate")
    result = engine.execute(GROUPED_SORT_QUERY)
    ref_engine, ref_market = grouped_squares_engine(sort_method="rate", blocking=True)
    ref_result = ref_engine.execute(GROUPED_SORT_QUERY)
    assert result.as_dicts() == ref_result.as_dicts()
    assert vote_stream(market) == vote_stream(ref_market)
    assert result.pipeline_summary["peak_outstanding_groups"] >= 3
    assert result.elapsed_seconds < ref_result.elapsed_seconds
    assert_serial_summary(ref_result)
    assert result.pipeline_summary["serial_latency_seconds"] == pytest.approx(
        ref_result.elapsed_seconds, rel=1e-12
    )


def test_budget_abort_point_matches_blocking():
    """max_budget must bite at the same posting, for the same dollars,
    on both kinds of platform. With overlap, the scheduler begins every
    sort group's batch before harvesting any, so its ledger lags — the
    scheduler's inflight-assignment reservation has to cover the gap, and
    an abort settles already-posted groups so the charged dollars match.
    The cap sweep is chosen to cross mid-overlap (between the 1st and 3rd
    group's pre-flight checks)."""
    from repro.errors import BudgetExceededError

    def spend(blocking: bool, max_budget: float | None):
        engine, market = grouped_squares_engine(
            sort_method="rate", max_budget=max_budget, blocking=blocking
        )
        try:
            engine.execute(GROUPED_SORT_QUERY)
        except BudgetExceededError:
            status = "aborted"
        else:
            status = "completed"
        return (
            status,
            round(engine.ledger.total_cost, 10),
            market.stats.hits_posted,
        )

    _, full_cost, _ = spend(blocking=True, max_budget=None)
    # Pre-flight projects units*assignments per group; actual charges are
    # per completed assignment of the *batched* HITs, so caps between one
    # projection and projection+actuals land between groups.
    outcomes = []
    for cap in (full_cost * 0.5, full_cost * 1.5, full_cost * 2.1, full_cost * 6.0):
        overlapping_run = spend(blocking=False, max_budget=cap)
        blocking_run = spend(blocking=True, max_budget=cap)
        assert overlapping_run == blocking_run, (cap, overlapping_run, blocking_run)
        outcomes.append(overlapping_run[0])
    assert outcomes[0] == "aborted"
    assert outcomes[-1] == "completed"
    # At least one cap aborted with money already spent: the abort
    # happened mid-overlap, after earlier groups had posted.
    assert any(
        status == "aborted" and cost > 0 for status, cost, _ in
        [spend(False, full_cost * f) for f in (1.5, 2.1, 2.7)]
    )


def test_cache_visible_to_outstanding_siblings():
    """A group posted while another is outstanding must see the earlier
    group's results in its cache lookup (read-your-writes, like a blocking
    post): duplicate payloads never reach the platform twice."""
    from repro.hits.cache import TaskCache

    items = [f"img://item/{i}" for i in range(6)]
    truth = harvest_truth(items)

    def duplicate_posts(deferred: bool):
        market = SimulatedMarketplace(truth, seed=2)
        manager = TaskManager(market, cache=TaskCache())
        kwargs = {"post_time": 0.0} if deferred else {}
        first = manager.begin_hits(filter_hits(manager, items), label="a", **kwargs)
        second = manager.begin_hits(filter_hits(manager, items), label="b", **kwargs)
        outcomes = [p.result() for p in (second, first)]  # harvest order-free
        return market.stats.hits_posted, [o.assignment_count for o in outcomes]

    blocking = duplicate_posts(deferred=False)
    overlapped = duplicate_posts(deferred=True)
    assert blocking == overlapped
    hits_posted, _ = overlapped
    assert hits_posted == 2  # 6 items / batch 5 → one group of 2 HITs, once


def test_explain_reports_pipeline_columns():
    result, _ = run_workload("table5-optimized", blocking=False)
    text = result.explain()
    assert "pipeline: stage=" in text
    assert "queue=" in text
    assert "peak_outstanding_groups=" in text
    assert "overlap_speedup=" in text
    # A blocking run reports the same columns, with nothing overlapped.
    ref_text = run_workload("table5-optimized", blocking=True)[0].explain()
    assert "~ pipeline:" in ref_text
    assert "overlap_speedup=1.00x" in ref_text
