"""Crowd sort execution (§4): Compare, Rate, and Hybrid.

ORDER BY clauses mix plain expressions with at most one Rank-task UDF: rows
first group by the plain prefix (e.g. ``ORDER BY name, quality(img)`` sorts
scenes per actor), then each group's distinct items are ordered by the
crowd using the configured method.

The per-group Compare/Rate sorts are independent of one another, so their
HIT batches are *begun* for every group before any group's votes are
collected: under the pipelined executor the groups' postings share one
virtual interval (five per-actor Rate batches finish in the time of the
slowest one, §2.6), while against the blocking manager each begin resolves
at posting time and the execution is the serial group-by-group loop,
draw-for-draw. Hybrid sorting stays serial per group — its comparison
windows are chosen from the evolving order, an inherently sequential
repair loop.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.context import QueryContext
from repro.core.crowd_calls import call_item_ref, evaluate_arg
from repro.core.plan import SortNode
from repro.errors import PlanError
from repro.hits.hit import (
    CompareGroup,
    ComparePayload,
    Payload,
    PickBestPayload,
    RatePayload,
    RateQuestion,
)
from repro.hits.manager import collect_pending
from repro.language.ast import OrderItem
from repro.metrics.agreement import comparison_kappa
from repro.relational.expressions import UDFCall
from repro.relational.rows import Row
from repro.sorting.groups import covering_groups
from repro.sorting.head_to_head import head_to_head_order, pair_winners_from_votes
from repro.sorting.hybrid import (
    ConfidenceStrategy,
    HybridSorter,
    RandomStrategy,
    SlidingWindowStrategy,
    WindowStrategy,
)
from repro.sorting.rating import RatingSummary, order_by_rating, summarize_ratings
from repro.sorting.topk import tournament_top_k
from repro.tasks.registry import ROLE_RANK, task_role
from repro.util.rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.tasks.rank import RankTask


def execute_sort(node: SortNode, rows: Sequence[Row], ctx: QueryContext) -> list[Row]:
    """Order rows per the ORDER BY items."""
    stats = ctx.stats_for(node)
    stats.rows_in = len(rows)
    env = ctx.catalog.functions()

    plain_items: list[OrderItem] = []
    crowd_item: OrderItem | None = None
    for item in node.order_items:
        calls = [
            call for call in item.expr.udf_calls() if not ctx.catalog.has_function(call.name)
        ]
        if not calls:
            if crowd_item is not None:
                raise PlanError(
                    "plain ORDER BY expressions must precede the Rank UDF"
                )
            plain_items.append(item)
        else:
            if crowd_item is not None:
                raise PlanError("at most one Rank UDF per ORDER BY is supported")
            if not isinstance(item.expr, UDFCall):
                raise PlanError(
                    f"crowd ORDER BY item must be a bare Rank call, got {item.expr}"
                )
            crowd_item = item

    working = list(rows)
    if crowd_item is None:
        keyed = [
            (_plain_key(row, plain_items, env), index, row)
            for index, row in enumerate(working)
        ]
        keyed.sort(key=lambda triple: (triple[0], triple[1]))
        ordered = [row for _, _, row in keyed]
        stats.rows_out = len(ordered)
        return ordered

    call = crowd_item.expr
    assert isinstance(call, UDFCall)
    task = ctx.catalog.task(call.name)
    if task_role(task) != ROLE_RANK:
        raise PlanError(f"ORDER BY task {call.name!r} must be a Rank task")

    # Group rows by the plain prefix, then crowd-sort within each group.
    groups: dict[tuple, list[Row]] = {}
    group_order: list[tuple] = []
    for row in working:
        key = _plain_key(row, plain_items, env)
        if key not in groups:
            groups[key] = []
            group_order.append(key)
        groups[key].append(row)
    group_order.sort()

    # LIMIT-aware tournament: a single-group Compare sort capped by a
    # row-preserving LIMIT k only ever surfaces its leading k items, so a
    # tournament extracts them directly instead of covering every pair.
    if (
        not plain_items
        and len(group_order) == 1
        and _limit_tournament_applies(node, ctx)
    ):
        ref_map = {}
        for row in groups[group_order[0]]:
            ref = call_item_ref(call, row, env)
            ref_map.setdefault(ref, []).append(row)
        refs = list(ref_map)
        k = node.limit_hint
        assert k is not None
        if 1 <= k < len(refs):
            leading = limit_tournament_refs(
                task, refs, k, ctx, node, most=not crowd_item.ascending
            )
            ordered_rows = []
            for ref in leading:
                ordered_rows.extend(ref_map[ref])
            stats.rows_out = len(ordered_rows)
            return ordered_rows

    # Phase 1: post every group's sort HITs (begin); phase 2: harvest in
    # virtual-finish order; phase 3: combine per group. Hybrid groups (and
    # trivial ones) carry no pending work and sort inline in phase 3.
    group_sorts: list[tuple[tuple, dict[str, list[Row]], _PendingGroupSort | None]] = []
    for key in group_order:
        group_rows = groups[key]
        ref_map: dict[str, list[Row]] = {}
        for row in group_rows:
            ref = call_item_ref(call, row, env)
            ref_map.setdefault(ref, []).append(row)
        refs = list(ref_map)
        pending: _PendingGroupSort | None = None
        if len(refs) >= 2 and ctx.config.sort_method == "compare":
            pending = begin_compare_sort(task, refs, ctx)
        elif len(refs) >= 2 and ctx.config.sort_method == "rate":
            pending = begin_rate_sort(task, refs, ctx)
        group_sorts.append((key, ref_map, pending))
    collect_pending(
        [plan.batch for _, _, plan in group_sorts if plan is not None]
    )

    ordered_rows: list[Row] = []
    for key, ref_map, pending in group_sorts:
        if pending is not None:
            ordered_refs = pending.finish(node)[0]
        else:
            ordered_refs = crowd_sort_items(task, list(ref_map), ctx, node)
        if not crowd_item.ascending:
            ordered_refs = list(reversed(ordered_refs))
        for ref in ordered_refs:
            ordered_rows.extend(ref_map[ref])
    stats.rows_out = len(ordered_rows)
    return ordered_rows


def _plain_key(row: Row, items: Sequence[OrderItem], env: Mapping) -> tuple:
    key = []
    for item in items:
        value = item.expr.evaluate(row, env)
        key.append(_Reversible(value, item.ascending))
    return tuple(key)


class _Reversible:
    """Sort key wrapper supporting DESC on arbitrary comparable values.

    Hashable so that plain-prefix group keys can serve as dict keys.
    """

    __slots__ = ("value", "ascending")

    def __init__(self, value, ascending: bool) -> None:
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_Reversible") -> bool:
        if self.ascending:
            return self.value < other.value
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversible) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


# ---------------------------------------------------------------------------
# LIMIT-aware tournament sort
# ---------------------------------------------------------------------------


def _limit_tournament_applies(node: SortNode, ctx: QueryContext) -> bool:
    """Whether this sort may satisfy its LIMIT hint with tournaments.

    Requires the planner's hint, the Compare method (Rate is already O(N)
    HITs; Hybrid's repair loop needs the whole order), and
    ``ExecutionConfig.limit_sort_tournament``.
    """
    return (
        node.limit_hint is not None
        and ctx.config.sort_method == "compare"
        and ctx.config.limit_sort_tournament
    )


def pick_best_payload(
    task: RankTask, batch: Sequence[str], most: bool
) -> PickBestPayload:
    """The best-of-batch HIT payload (§2.3), shared question wording.

    Used by both :meth:`repro.core.engine.Qurk.extreme` and the LIMIT
    tournament path so the MAX/MIN interface's HIT text cannot drift
    between the aggregate and sort entry points.
    """
    direction = task.most_name if most else task.least_name
    return PickBestPayload(
        task_name=task.name,
        items=tuple(batch),
        question=(
            f"Which of these {task.plural_name} is the {direction} "
            f"by {task.order_dimension_name}?"
        ),
        pick_most=most,
    )


def tally_pick_votes(payload: PickBestPayload, votes: Sequence) -> str:
    """Majority winner of one pick-best question (shared tie-break).

    Ties break toward the higher vote count, then the larger item
    reference — the same rule for the engine's ``extreme()`` aggregate and
    the sort tournament, so tied crowds cannot rank differently depending
    on which entry point asked.
    """
    counts = Counter(str(vote.value) for vote in votes)
    if not counts:
        raise PlanError(
            f"no votes for pick batch {list(payload.items)!r} — cannot rank"
        )
    winner, _ = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return winner


def limit_tournament_refs(
    task: RankTask,
    refs: Sequence[str],
    k: int,
    ctx: QueryContext,
    node: SortNode | None = None,
    most: bool = True,
) -> list[str]:
    """The leading k refs via successive best-of-batch tournaments (§2.3).

    Spends ≈ k·N/(b−1) pick HITs instead of the full comparison sort's
    C(N, 2)/C(b, 2) group coverage. Returns the winners best-first in the
    pick direction — which is the final output's leading direction for
    both DESC (``most=True``) and ASC (``most=False``) — so rows emitted
    in this order truncate correctly under the LimitNode above.
    """
    batch_size = min(ctx.config.limit_pick_batch_size, len(refs))

    def pick(batch: Sequence[str]) -> str:
        payload = pick_best_payload(task, batch, most)
        ctx.charge_budget_for_units([[payload]], 1, ctx.config.assignments)
        outcome = ctx.manager.run_units(
            [[payload]],
            batch_size=1,
            assignments=ctx.config.assignments,
            label="sort:limit",
            strict=ctx.config.strict_hits,
        )
        if node is not None:
            stats = ctx.stats_for(node)
            stats.hits += outcome.hit_count
            stats.assignments += outcome.assignment_count
            stats.elapsed_seconds += outcome.elapsed_seconds
        return tally_pick_votes(payload, outcome.votes.get(payload.qid(), []))

    winners, hits = tournament_top_k(refs, pick, k, batch_size=batch_size)
    if node is not None:
        signals = ctx.stats_for(node).signals
        signals["limit_tournament_hits"] = float(hits)
        signals["limit_tournament_k"] = float(k)
    return winners


# ---------------------------------------------------------------------------
# Crowd ordering of an item list
# ---------------------------------------------------------------------------


def crowd_sort_items(
    task: RankTask, refs: Sequence[str], ctx: QueryContext, node: SortNode
) -> list[str]:
    """Order item refs least → most with the configured method."""
    if len(refs) < 2:
        return list(refs)
    method = ctx.config.sort_method
    if method == "compare":
        order, _ = compare_sort(task, refs, ctx, node)
        return order
    if method == "rate":
        order, _ = rate_sort(task, refs, ctx, node)
        return order
    order, _ = hybrid_sort(task, refs, ctx, node)
    return order


class _PendingGroupSort:
    """One group's posted-but-uncombined sort HITs (Compare or Rate)."""

    def __init__(self, ctx, batch, combine) -> None:
        self.ctx = ctx
        self.batch = batch
        self._combine = combine

    def finish(self, node: SortNode | None = None):
        """Collect the votes and combine them into (order, corpus/summaries)."""
        outcome = self.batch.result()
        if node is not None:
            stats = self.ctx.stats_for(node)
            stats.hits += outcome.hit_count
            stats.assignments += outcome.assignment_count
            stats.elapsed_seconds += outcome.elapsed_seconds
        return self._combine(outcome, node)


def begin_compare_sort(
    task: RankTask, refs: Sequence[str], ctx: QueryContext
) -> _PendingGroupSort:
    """Post a full comparison sort's HITs without collecting the votes."""
    group_size = min(ctx.config.compare_group_size, len(refs))
    groups = covering_groups(list(refs), group_size, seed=ctx.config.seed)
    item_html = {ref: _item_html(task, ref) for ref in refs}
    units: list[list[Payload]] = [
        [
            ComparePayload(
                task_name=task.name,
                groups=(CompareGroup(tuple(group)),),
                question=task.compare_question(group_size),
                item_html=item_html,
            )
        ]
        for group in groups
    ]
    ctx.charge_budget_for_units(
        units, ctx.config.compare_batch_groups, ctx.config.assignments
    )
    batch = ctx.manager.begin_units(
        units,
        batch_size=ctx.config.compare_batch_groups,
        assignments=ctx.config.assignments,
        label="sort:compare",
        strict=ctx.config.strict_hits,
    )

    def combine(outcome, node):
        corpus = {qid: v for qid, v in outcome.votes.items() if ":cmp:" in qid and v}
        winners = pair_winners_from_votes(corpus)
        order = head_to_head_order(list(refs), winners)
        if node is not None and corpus:
            ctx.stats_for(node).signals["comparison_kappa"] = comparison_kappa(corpus)
        return order, corpus

    return _PendingGroupSort(ctx, batch, combine)


def compare_sort(
    task: RankTask,
    refs: Sequence[str],
    ctx: QueryContext,
    node: SortNode | None = None,
) -> tuple[list[str], dict]:
    """Full comparison sort; returns (order, vote corpus)."""
    return begin_compare_sort(task, refs, ctx).finish(node)


def begin_rate_sort(
    task: RankTask, refs: Sequence[str], ctx: QueryContext
) -> _PendingGroupSort:
    """Post a rating sort's HITs without collecting the votes."""
    rng = RandomSource(ctx.config.seed).child("rate-anchors", task.name)
    anchor_count = min(ctx.config.rate_anchor_count, len(refs))
    anchors = tuple(rng.sample(list(refs), anchor_count))
    units: list[list[Payload]] = [
        [
            RatePayload(
                task_name=task.name,
                questions=(RateQuestion(item=ref, prompt_html=_item_html(task, ref)),),
                anchors=anchors,
                scale_points=task.scale_points,
                question=task.rate_question(),
            )
        ]
        for ref in refs
    ]
    ctx.charge_budget_for_units(
        units, ctx.config.rate_batch_size, ctx.config.assignments
    )
    batch = ctx.manager.begin_units(
        units,
        batch_size=ctx.config.rate_batch_size,
        assignments=ctx.config.assignments,
        label="sort:rate",
        strict=ctx.config.strict_hits,
    )

    def combine(outcome, node):
        corpus = {qid: v for qid, v in outcome.votes.items() if ":rate:" in qid and v}
        summaries = summarize_ratings(corpus)
        for ref in refs:
            if ref not in summaries:
                summaries[ref] = RatingSummary(item=ref, mean=0.0, std=0.0, count=0)
        return order_by_rating(summaries), summaries

    return _PendingGroupSort(ctx, batch, combine)


def rate_sort(
    task: RankTask,
    refs: Sequence[str],
    ctx: QueryContext,
    node: SortNode | None = None,
) -> tuple[list[str], dict[str, RatingSummary]]:
    """Rating sort; returns (order, per-item summaries)."""
    return begin_rate_sort(task, refs, ctx).finish(node)


def hybrid_sort(
    task: RankTask,
    refs: Sequence[str],
    ctx: QueryContext,
    node: SortNode | None = None,
) -> tuple[list[str], HybridSorter]:
    """Rate, then repair with comparison windows (§4.1.3)."""
    _, summaries = rate_sort(task, refs, ctx, node)
    strategy = make_strategy(
        ctx.config.hybrid_strategy,
        window_size=min(ctx.config.compare_group_size, len(refs)),
        stride=ctx.config.hybrid_stride,
        seed=ctx.config.seed,
    )
    sorter = HybridSorter(
        summaries,
        strategy,
        compare=lambda window: run_compare_window(task, window, ctx, node),
    )
    sorter.run(ctx.config.hybrid_iterations)
    return list(sorter.order), sorter


def make_strategy(
    name: str, window_size: int, stride: int, seed: int
) -> WindowStrategy:
    """Instantiate a hybrid window-selection strategy by name."""
    if name == "random":
        return RandomStrategy(window_size, seed=seed)
    if name == "confidence":
        return ConfidenceStrategy(window_size)
    if name == "window":
        return SlidingWindowStrategy(window_size, stride)
    raise PlanError(f"unknown hybrid strategy {name!r}")


def run_compare_window(
    task: RankTask,
    window: Sequence[str],
    ctx: QueryContext,
    node: SortNode | None = None,
) -> dict[tuple[str, str], str]:
    """One comparison HIT over a hybrid window; returns per-pair winners."""
    payload = ComparePayload(
        task_name=task.name,
        groups=(CompareGroup(tuple(window)),),
        question=task.compare_question(len(window)),
        item_html={ref: _item_html(task, ref) for ref in window},
    )
    ctx.charge_budget_for_units([[payload]], 1, ctx.config.assignments)
    outcome = ctx.manager.run_units(
        [[payload]],
        batch_size=1,
        assignments=ctx.config.assignments,
        label="sort:hybrid",
        strict=ctx.config.strict_hits,
    )
    if node is not None:
        stats = ctx.stats_for(node)
        stats.hits += outcome.hit_count
        stats.assignments += outcome.assignment_count
        stats.elapsed_seconds += outcome.elapsed_seconds
    corpus = {qid: v for qid, v in outcome.votes.items() if ":cmp:" in qid and v}
    return pair_winners_from_votes(corpus)


def _item_html(task: RankTask, ref: str) -> str:
    """Render the task's per-item HTML with the ref bound to every param."""
    bindings = {("tuple", param): ref for param in task.params}
    return task.html.render(bindings)
