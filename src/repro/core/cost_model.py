"""Per-operator cost model for plan scoring (§6, "future work" made real).

The paper's optimizer is purely rewrite-based; §6 defers cost- and
budget-aware planning. This module supplies the missing arithmetic: for
every plan operator it forecasts

* **cardinalities** — scan sizes come from the catalog, filter outputs
  from the :class:`~repro.core.adaptive.SelectivityBook`'s online
  estimates (priors before any observation, observed pass rates after);
* **HIT counts** — the paper's own batching accounting
  (:func:`repro.joins.batching.hit_count_estimate`, filter/generative
  batch sizes, grid shapes) applied to the estimated cardinalities;
* **dollars** — HITs × assignments × :class:`~repro.hits.pricing.PricingModel`.

The totals score candidate plans in the adaptive optimizer, feed the
whole-plan budget pre-flight (:func:`repro.core.budget.plan_preflight`),
and surface as *predicted vs. actual* HIT counts in EXPLAIN. Everything
here is an estimate — execution never depends on it for correctness, only
for ordering and forecasting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.plan import (
    AdaptiveFilterNode,
    ComputedFilterNode,
    CrowdPredicateNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.hits.pricing import PricingModel
from repro.joins.batching import JoinInterface, hit_count_estimate
from repro.tasks.registry import ROLE_GENERATIVE, DispatchTable, spec_for_task

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.adaptive import SelectivityBook
    from repro.core.context import ExecutionConfig
    from repro.relational.catalog import Catalog

JOIN_MATCH_PRIOR = 0.1
"""Assumed fraction of candidate pairs that truly join, pre-observation."""


@dataclass(frozen=True)
class OperatorCost:
    """Forecast for one plan operator."""

    label: str
    rows_in: float = 0.0
    rows_out: float = 0.0
    units: float = 0.0
    """Atomic crowd questions (tuples, pairs, items) the operator asks."""

    hits: float = 0.0
    assignments: float = 0.0
    dollars: float = 0.0

    @property
    def selectivity(self) -> float:
        """Estimated pass fraction (1.0 for non-filtering operators)."""
        if self.rows_in <= 0:
            return 1.0
        return self.rows_out / self.rows_in


@dataclass
class PlanCostEstimate:
    """Whole-plan forecast: per-node operator costs plus totals."""

    per_node: dict[int, OperatorCost] = field(default_factory=dict)

    @property
    def total_hits(self) -> float:
        return sum(cost.hits for cost in self.per_node.values())

    @property
    def total_assignments(self) -> float:
        return sum(cost.assignments for cost in self.per_node.values())

    @property
    def total_dollars(self) -> float:
        return sum(cost.dollars for cost in self.per_node.values())


def predicate_key(predicate: object) -> str:
    """The selectivity book's stable key for a predicate expression."""
    return f"pred:{predicate}"


def feature_key(name: str) -> str:
    """The selectivity book's key for a POSSIBLY feature's σ."""
    return f"feature:{name}"


def join_key(task_name: str) -> str:
    """The selectivity book's key for a join task's match rate."""
    return f"join:{task_name}"


def _filter_batch_for(node: CrowdPredicateNode, catalog: "Catalog", config: "ExecutionConfig") -> int:
    """The batch size the predicate's crowd calls will post at.

    Filter tasks merge at ``filter_batch_size``; generative-role calls in a
    WHERE clause batch at ``generative_batch_size``. A predicate mixing
    both is approximated by the smaller (more HITs — conservative).
    """
    batch = config.filter_batch_size
    assert node.predicate is not None
    for call in node.predicate.udf_calls():
        if catalog.has_function(call.name):
            continue
        if (
            catalog.has_task(call.name)
            and spec_for_task(catalog.task(call.name)).role == ROLE_GENERATIVE
        ):
            batch = min(batch, config.generative_batch_size)
    return batch


def _predicate_cost(
    node: CrowdPredicateNode,
    child_rows: list[float],
    catalog: "Catalog",
    config: "ExecutionConfig",
    book: "SelectivityBook",
    pricing: PricingModel,
) -> OperatorCost:
    rows = child_rows[0] if child_rows else 0.0
    sigma = book.estimate(predicate_key(node.predicate))
    batch = _filter_batch_for(node, catalog, config)
    hits = math.ceil(rows / batch) if rows else 0
    assignments = hits * config.assignments
    return OperatorCost(
        label=node.label(),
        rows_in=rows,
        rows_out=rows * sigma,
        units=rows,
        hits=hits,
        assignments=assignments,
        dollars=pricing.cost(int(assignments)),
    )


NODE_COST_MODELS = DispatchTable("plan-node cost model")
"""Cost handlers keyed by ``PlanNode.kind``.

Each handler takes ``(node, child_rows, catalog, config, book, pricing)``
and returns an :class:`OperatorCost`. Node kinds without a handler get a
pass-through cost (execution never depends on the forecast for
correctness), so out-of-tree kinds degrade gracefully until they register
their own arithmetic.
"""


def estimate_plan_cost(
    plan: PlanNode,
    catalog: "Catalog",
    config: "ExecutionConfig",
    book: "SelectivityBook",
    pricing: PricingModel | None = None,
) -> PlanCostEstimate:
    """Forecast every operator's cardinality, HIT count, and dollars."""
    pricing = pricing or PricingModel()
    estimate = PlanCostEstimate()

    def visit(node: PlanNode) -> float:
        """Bottom-up: returns the node's estimated output cardinality."""
        child_rows = [visit(child) for child in node.inputs]
        rows = child_rows[0] if child_rows else 0.0
        model = NODE_COST_MODELS.lookup(node.kind)
        if model is None:
            cost = OperatorCost(label=node.label(), rows_in=rows, rows_out=rows)
        else:
            cost = model(node, child_rows, catalog, config, book, pricing)
        estimate.per_node[id(node)] = cost
        return cost.rows_out

    visit(plan)
    return estimate


def _scan_cost_entry(
    node: ScanNode, child_rows, catalog, config, book, pricing
) -> OperatorCost:
    n = float(len(catalog.table(node.table_name)))
    return OperatorCost(label=node.label(), rows_in=n, rows_out=n)


def _computed_filter_cost_entry(
    node: ComputedFilterNode, child_rows, catalog, config, book, pricing
) -> OperatorCost:
    rows = child_rows[0] if child_rows else 0.0
    sigma = book.estimate(predicate_key(node.predicate))
    return OperatorCost(label=node.label(), rows_in=rows, rows_out=rows * sigma)


def _limit_cost_entry(
    node: LimitNode, child_rows, catalog, config, book, pricing
) -> OperatorCost:
    rows = child_rows[0] if child_rows else 0.0
    return OperatorCost(
        label=node.label(), rows_in=rows, rows_out=min(rows, node.count)
    )


def _adaptive_chain_cost(
    node: AdaptiveFilterNode,
    child_rows: list[float],
    catalog: "Catalog",
    config: "ExecutionConfig",
    book: "SelectivityBook",
    pricing: PricingModel,
) -> OperatorCost:
    """Pilot + best-order cascade forecast for a fused conjunct chain.

    Mirrors the executor's plan: every member samples the pilot rows, then
    the remainder cascades through the members in ascending estimated
    selectivity — the arithmetic the HIT savings come from.
    """
    from repro.core.adaptive import pilot_size

    rows = child_rows[0] if child_rows else 0.0
    members = list(node.members)
    sigmas = {
        id(m): book.estimate(predicate_key(m.predicate)) for m in members
    }
    pilot = float(pilot_size(int(rows), len(members), config))
    hits = 0.0
    assignments = 0.0
    for member in members:
        batch = _filter_batch_for(member, catalog, config)
        hits += math.ceil(pilot / batch) if pilot else 0
    ordered = sorted(
        enumerate(members), key=lambda pair: (sigmas[id(pair[1])], pair[0])
    )
    flowing = rows - pilot
    for _, member in ordered:
        batch = _filter_batch_for(member, catalog, config)
        hits += math.ceil(flowing / batch) if flowing > 0 else 0
        flowing *= sigmas[id(member)]
    assignments = hits * config.assignments
    out = rows
    for member in members:
        out *= sigmas[id(member)]
    return OperatorCost(
        label=node.label(),
        rows_in=rows,
        rows_out=out,
        units=rows * len(members),
        hits=hits,
        assignments=assignments,
        dollars=pricing.cost(int(assignments)),
    )


def _possibly_book_name(expr, left_aliases: set[str], catalog: "Catalog") -> str:
    """The selectivity-book name a POSSIBLY clause is observed under.

    The runtime keys equality features by the *left join side's* crowd
    call name (``_classify_possibly`` in join_exec), so the forecast must
    read the same key: the first crowd (non-function) call whose column
    references are confined to the left side's aliases. Falls back to the
    first crowd call (unary clauses observe under a different key space
    and keep their prior here) or the expression text.
    """
    crowd_calls = [
        call for call in expr.udf_calls() if not catalog.has_function(call.name)
    ]
    for call in crowd_calls:
        qualifiers = {
            ref.split(".", 1)[0] if "." in ref else ref
            for ref in call.references()
        }
        if qualifiers and qualifiers <= left_aliases:
            return call.name
    if crowd_calls:
        return crowd_calls[0].name
    return str(expr)


def _join_cost(
    node: JoinNode,
    child_rows: list[float],
    catalog: "Catalog",
    config: "ExecutionConfig",
    book: "SelectivityBook",
    pricing: PricingModel,
) -> OperatorCost:
    left = child_rows[0] if child_rows else 0.0
    right = child_rows[1] if len(child_rows) > 1 else 0.0
    hits = 0.0

    # Feature-extraction linear passes (one per side; combining folds all
    # features of a side into one pass, §3.3.4).
    sel = 1.0
    if config.use_feature_filters and node.possibly:
        passes = 1 if config.combine_features else len(node.possibly)
        hits += passes * (
            math.ceil(left / config.generative_batch_size)
            + math.ceil(right / config.generative_batch_size)
        )
        left_aliases = {
            n.alias for n in node.inputs[0].walk() if n.kind == ScanNode.kind
        }
        for expr in node.possibly:
            sel *= book.estimate(
                feature_key(_possibly_book_name(expr, left_aliases, catalog))
            )

    pairs = left * right * sel
    if pairs:
        per_pair_hits = hit_count_estimate(
            int(math.ceil(pairs)),
            1,
            config.join_interface,
            batch_size=config.naive_batch_size,
            grid_rows=config.grid_rows,
            grid_cols=config.grid_cols,
        )
        hits += per_pair_hits
    match_rate = (
        book.estimate(join_key(node.condition.name), prior=JOIN_MATCH_PRIOR)
        if node.condition is not None
        else JOIN_MATCH_PRIOR
    )
    assignments = hits * config.assignments
    return OperatorCost(
        label=node.label(),
        rows_in=left + right,
        rows_out=pairs * match_rate,
        units=pairs,
        hits=hits,
        assignments=assignments,
        dollars=pricing.cost(int(assignments)),
    )


def _sort_cost(
    node: SortNode,
    child_rows: list[float],
    catalog: "Catalog",
    config: "ExecutionConfig",
    book: "SelectivityBook",
    pricing: PricingModel,
) -> OperatorCost:
    rows = n = child_rows[0] if child_rows else 0.0
    if config.sort_method == "rate":
        hits = math.ceil(n / config.rate_batch_size)
    elif config.sort_method == "compare":
        s = max(2, config.compare_group_size)
        group_pairs = s * (s - 1) / 2.0
        hits = math.ceil((n * max(0.0, n - 1) / 2.0) / group_pairs)
    else:  # hybrid: a rating pass plus the configured comparison budget
        hits = math.ceil(n / config.rate_batch_size) + config.hybrid_iterations
    assignments = hits * config.assignments
    return OperatorCost(
        label=node.label(),
        rows_in=rows,
        rows_out=rows,
        units=n,
        hits=hits,
        assignments=assignments,
        dollars=pricing.cost(int(assignments)),
    )


def _project_cost(
    node: ProjectNode,
    child_rows: list[float],
    catalog: "Catalog",
    config: "ExecutionConfig",
    book: "SelectivityBook",
    pricing: PricingModel,
) -> OperatorCost:
    rows = child_rows[0] if child_rows else 0.0
    crowd = False
    if not node.star:
        crowd = any(
            not catalog.has_function(call.name)
            for item in node.items
            for call in item.expr.udf_calls()
        )
    hits = math.ceil(rows / config.generative_batch_size) if crowd else 0
    assignments = hits * config.assignments
    return OperatorCost(
        label=node.label(),
        rows_in=rows,
        rows_out=rows,
        units=rows if crowd else 0.0,
        hits=hits,
        assignments=assignments,
        dollars=pricing.cost(int(assignments)),
    )


NODE_COST_MODELS.register(ScanNode.kind, _scan_cost_entry)
NODE_COST_MODELS.register(ComputedFilterNode.kind, _computed_filter_cost_entry)
NODE_COST_MODELS.register(CrowdPredicateNode.kind, _predicate_cost)
NODE_COST_MODELS.register(AdaptiveFilterNode.kind, _adaptive_chain_cost)
NODE_COST_MODELS.register(JoinNode.kind, _join_cost)
NODE_COST_MODELS.register(SortNode.kind, _sort_cost)
NODE_COST_MODELS.register(ProjectNode.kind, _project_cost)
NODE_COST_MODELS.register(LimitNode.kind, _limit_cost_entry)


def operator_estimates(
    estimate: PlanCostEstimate, config: "ExecutionConfig"
) -> list["OperatorEstimate"]:
    """The cost model's forecast as budget-allocator operator estimates.

    Bridges :func:`estimate_plan_cost` to
    :func:`repro.core.budget.plan_preflight` /
    :func:`repro.core.budget.allocate_budget`. The allocator charges
    ``units × assignments``, and the marketplace bills per *HIT*
    assignment, so the billable unit here is the forecast **HIT count**,
    not the raw question count — feeding unbatched questions in would
    overstate spend by the batch factor (5× for batch-5 filters, ~25× for
    a 5×5 grid) and make the pre-flight abort affordable queries.
    """
    from repro.core.budget import OperatorEstimate

    estimates: list[OperatorEstimate] = []
    for index, cost in enumerate(estimate.per_node.values()):
        if cost.hits <= 0:
            continue
        estimates.append(
            OperatorEstimate(
                name=f"op{index}:{cost.label}",
                units=int(math.ceil(cost.hits)) or 1,
                requested_assignments=config.assignments,
            )
        )
    return estimates
