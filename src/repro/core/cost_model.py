"""Per-operator HIT forecast (§6, "future work" made real).

The paper's optimizer is purely rewrite-based; §6 defers cost- and
budget-aware planning. This module forecasts, for every plan operator,

* **cardinalities**: scan sizes come from the catalog, filter outputs from
  the :class:`~repro.core.adaptive.SelectivityBook`'s online estimates
  (priors before any observation, observed pass rates after), and a
  sort's plain-prefix groups from the distinct values the prefix reads in
  its catalog table;
* **HIT counts**: each operator's own count function, next to the code
  that posts (:func:`~repro.core.crowd_calls.predicate_hits`,
  :func:`~repro.core.join_exec.join_forecast`,
  :func:`~repro.core.sort_exec.sort_hits`), applied to those
  cardinalities;
* **dollars**: HITs × assignments × :class:`~repro.hits.pricing.PricingModel`.

The totals feed the whole-plan budget pre-flight
(:func:`repro.core.budget.plan_preflight`) and surface as *predicted vs.
actual* HIT counts in EXPLAIN. Execution never reads the forecast. Given
the true cardinalities the counts are exact, except a grouped sort's
group sizes (split evenly here), grids over candidates an equality
feature pruned, and crowd predicates and select lists above a join
(counted per row; execution asks once per distinct ref).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.crowd_calls import predicate_hits
from repro.core.join_exec import join_forecast
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
from repro.core.sort_exec import plain_prefix, sort_hits
from repro.hits.pricing import PricingModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.adaptive import SelectivityBook
    from repro.core.budget import OperatorEstimate
    from repro.core.context import ExecutionConfig
    from repro.relational.catalog import Catalog


@dataclass(frozen=True)
class OperatorCost:
    """Forecast for one plan operator."""

    label: str
    rows_in: float = 0.0
    rows_out: float = 0.0
    hits: float = 0.0
    assignments: float = 0.0
    dollars: float = 0.0


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
        forecast = _FORECASTS.get(node.kind)
        if forecast is None:  # an operator that asks no crowd
            rows, hits = (child_rows[0] if child_rows else 0.0), 0
        else:
            rows, hits = forecast(node, child_rows, catalog, config, book)
        assignments = hits * config.assignments
        estimate.per_node[id(node)] = OperatorCost(
            label=node.label(),
            rows_in=sum(child_rows),
            rows_out=rows,
            hits=float(hits),
            assignments=assignments,
            dollars=pricing.cost(assignments),
        )
        return rows

    visit(plan)
    return estimate


def _scan(node: ScanNode, child_rows, catalog, config, book) -> tuple[float, int]:
    return float(len(catalog.table(node.table_name))), 0


def _computed_filter(node: ComputedFilterNode, child_rows, catalog, config, book):
    return child_rows[0] * book.estimate(predicate_key(node.predicate)), 0


def _limit(node: LimitNode, child_rows, catalog, config, book) -> tuple[float, int]:
    return min(child_rows[0], node.count), 0


def _predicate(node: CrowdPredicateNode, child_rows, catalog, config, book):
    rows = child_rows[0]
    hits = predicate_hits(node.crowd_calls(), round(rows), catalog, config)
    return rows * book.estimate(predicate_key(node.predicate)), hits


def _adaptive_chain(node: AdaptiveFilterNode, child_rows, catalog, config, book):
    """Pilot + best-order cascade forecast for a fused conjunct chain.

    Mirrors the executor's plan: every member samples the pilot rows, then
    the remainder cascades through the members in ascending estimated
    selectivity, the arithmetic the HIT savings come from.
    """
    from repro.core.adaptive import pilot_size

    rows = child_rows[0]
    members = list(node.members)
    sigmas = [book.estimate(predicate_key(m.predicate)) for m in members]
    pilot = pilot_size(round(rows), len(members), config)
    hits = sum(
        predicate_hits(member.crowd_calls(), pilot, catalog, config)
        for member in members
    )
    flowing = rows - pilot
    for index in sorted(range(len(members)), key=lambda i: (sigmas[i], i)):
        hits += predicate_hits(
            members[index].crowd_calls(), round(flowing), catalog, config
        )
        flowing *= sigmas[index]
    return rows * math.prod(sigmas), hits


def _join(node: JoinNode, child_rows, catalog, config, book) -> tuple[float, int]:
    left, right = (round(rows) for rows in child_rows)
    return join_forecast(node, left, right, catalog, config, book)


def _sort(node: SortNode, child_rows, catalog, config, book) -> tuple[float, int]:
    """Rows split evenly over the plain prefix's groups (the distinct
    values its columns hold in their catalog tables, capped by the rows):
    one group size, so one covering call for a compare sort."""
    rows = round(child_rows[0])
    scans = {n.alias: n.table_name for n in node.walk() if n.kind == ScanNode.kind}
    columns: dict[str, list[str]] = {}
    for item in plain_prefix(node, catalog):
        for ref in item.expr.references():
            alias, _, name = ref.rpartition(".")
            table = scans.get(alias) or next(
                (t for t in scans.values() if name in catalog.table(t).schema), None
            )
            if table is not None:
                columns.setdefault(table, []).append(name)
    groups = 1
    for table, names in columns.items():
        keys = {tuple(row[name] for name in names) for row in catalog.table(table)}
        groups *= len(keys)
    count = min(groups, rows)
    sizes = [round(rows / count)] * count if count else []
    return child_rows[0], sort_hits(node, sizes, catalog, config)


def _project(node: ProjectNode, child_rows, catalog, config, book) -> tuple[float, int]:
    rows = child_rows[0]
    if node.star:
        return rows, 0
    calls = [call for item in node.items for call in item.expr.udf_calls()]
    return rows, predicate_hits(calls, round(rows), catalog, config)


_FORECASTS: dict[str, Callable] = {
    ScanNode.kind: _scan,
    ComputedFilterNode.kind: _computed_filter,
    CrowdPredicateNode.kind: _predicate,
    AdaptiveFilterNode.kind: _adaptive_chain,
    JoinNode.kind: _join,
    SortNode.kind: _sort,
    ProjectNode.kind: _project,
    LimitNode.kind: _limit,
}
"""(output rows, HITs) per plan-node kind, from
``(node, child_rows, catalog, config, book)``."""


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
