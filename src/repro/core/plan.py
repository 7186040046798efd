"""Logical plan nodes.

Plans are passive trees; the executor interprets them. Node kinds:

* :class:`ScanNode` — read a catalog table under an alias.
* :class:`ComputedFilterNode` — a predicate evaluable without the crowd
  (pushed down as far as possible, §2.5).
* :class:`CrowdPredicateNode` — a predicate whose UDF calls require crowd
  work (filter tasks and/or generative features), one per WHERE conjunct so
  that conjuncts execute serially (§2.5).
* :class:`JoinNode` — a crowd equijoin with optional POSSIBLY features.
* :class:`SortNode` — ORDER BY with plain columns and/or a Rank UDF.
* :class:`ProjectNode` / :class:`LimitNode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterator

from repro.language.ast import OrderItem, SelectItem
from repro.relational.expressions import Expression, UDFCall
from repro.relational.schema import Column, ColumnType, Schema


@dataclass
class PlanNode:
    """Base class; children in ``inputs``.

    Every node carries a string ``kind`` — its registry key. The scheduler
    dispatches on ``node.kind`` through a
    :class:`~repro.tasks.registry.DispatchTable` instead of switching on
    node classes, so out-of-tree node kinds can register handlers without
    engine edits; the optimizer and the cost model compare kinds too.
    """

    kind: ClassVar[str] = ""

    inputs: tuple["PlanNode", ...] = field(default_factory=tuple, kw_only=True)

    def label(self) -> str:
        """One-line description for EXPLAIN output."""
        return type(self).__name__

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.inputs:
            yield from child.walk()


@dataclass
class ScanNode(PlanNode):
    """Scan a registered table, qualifying columns with the alias."""

    kind: ClassVar[str] = "scan"

    table_name: str = ""
    alias: str = ""

    def label(self) -> str:
        return f"Scan({self.table_name} AS {self.alias})"


@dataclass
class ComputedFilterNode(PlanNode):
    """A computer-evaluable predicate (no HITs)."""

    kind: ClassVar[str] = "computed_filter"

    predicate: Expression | None = None

    def label(self) -> str:
        return f"ComputedFilter({self.predicate})"


@dataclass
class CrowdPredicateNode(PlanNode):
    """A predicate that needs crowd answers for its UDF calls."""

    kind: ClassVar[str] = "crowd_filter"

    predicate: Expression | None = None

    def label(self) -> str:
        return f"CrowdFilter({self.predicate})"

    def crowd_calls(self) -> list[UDFCall]:
        """The UDF calls whose answers the crowd must provide."""
        assert self.predicate is not None
        return self.predicate.udf_calls()


@dataclass
class AdaptiveFilterNode(PlanNode):
    """A fused chain of crowd predicates executed adaptively.

    Built by the optimizer when the adaptive re-optimizer (``REPRO_ADAPT``)
    is active and two or more :class:`CrowdPredicateNode`\\ s sit adjacent
    in a plan: instead of a fixed query-order cascade, the fused operator
    runs the estimate-observe-replan loop in
    :mod:`repro.core.adaptive` — a pilot pass samples each conjunct's
    selectivity, then the remaining rows cascade through the conjuncts in
    ascending observed-selectivity order, re-planning after every crowd
    round. ``members`` keeps the original predicate nodes (in query order)
    so EXPLAIN can attribute per-conjunct stats and estimated-vs-observed
    selectivities to them.

    The surviving row set is order-independent at the *answer* level (the
    conjuncts AND together), so whenever each question's combined answer
    is stable across posting orders — noise-free or high-margin votes —
    the fused operator emits exactly the rows the static cascade would,
    in the same input order, and only the HIT spend differs. With very
    noisy workers a borderline majority can land differently because
    reordering shifts which dispatch stream answers which question, just
    as re-running a static plan against a different crowd would.
    """

    kind: ClassVar[str] = "adaptive_filter"

    members: tuple[CrowdPredicateNode, ...] = ()

    def label(self) -> str:
        rendered = " AND ".join(str(m.predicate) for m in self.members)
        return f"AdaptiveCrowdFilter({len(self.members)} conjuncts: {rendered})"


@dataclass
class JoinNode(PlanNode):
    """Crowd equijoin of the two inputs with POSSIBLY feature clauses."""

    kind: ClassVar[str] = "join"

    condition: UDFCall | None = None
    possibly: tuple[Expression, ...] = ()

    def label(self) -> str:
        suffix = f" + {len(self.possibly)} POSSIBLY" if self.possibly else ""
        return f"CrowdJoin({self.condition}{suffix})"


@dataclass
class SortNode(PlanNode):
    """ORDER BY: leading plain expressions group; a Rank UDF sorts groups."""

    kind: ClassVar[str] = "sort"

    order_items: tuple[OrderItem, ...] = ()

    limit_hint: int | None = None
    """Set by the planner when a ``LIMIT k`` caps this sort through
    row-preserving operators only (a crowd-free projection): the sort may
    then produce just the leading k rows. With
    ``ExecutionConfig.limit_sort_tournament`` on, a hinted single-group
    Compare sort runs best-of-batch tournaments instead of full pair
    coverage."""

    def label(self) -> str:
        rendered = ", ".join(str(item) for item in self.order_items)
        return f"Sort({rendered})"


@dataclass
class ProjectNode(PlanNode):
    """Evaluate the select list (may trigger generative crowd work)."""

    kind: ClassVar[str] = "project"

    items: tuple[SelectItem, ...] = ()
    star: bool = False

    @cached_property
    def output_schema(self) -> Schema:
        """The select list's all-``any`` output schema, built once per plan
        and shared by every chunk the projection streams."""
        return Schema(
            [Column(item.output_name, ColumnType.ANY) for item in self.items]
        )

    def label(self) -> str:
        if self.star:
            return "Project(*)"
        return f"Project({', '.join(str(item) for item in self.items)})"


@dataclass
class LimitNode(PlanNode):
    """Keep the first k rows (top-K over a crowd sort, §2.3)."""

    kind: ClassVar[str] = "limit"

    count: int = 0

    def label(self) -> str:
        return f"Limit({self.count})"


def plan_aliases(node: PlanNode) -> set[str]:
    """Every scan alias bound inside a subtree."""
    return {n.alias for n in node.walk() if n.kind == ScanNode.kind}


def plan_tree_lines(node: PlanNode, indent: int = 0) -> list[str]:
    """Indented tree rendering used by EXPLAIN."""
    lines = ["  " * indent + node.label()]
    for child in node.inputs:
        lines.extend(plan_tree_lines(child, indent + 1))
    return lines
