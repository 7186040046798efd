"""Plan execution: the depth-first interpreter and the operator bodies.

Two executors share the operator implementations in this module, and the
platform picks between them:

* the **pipelined executor** (:mod:`repro.core.scheduler`) runs each
  operator as a stepping task with bounded input queues over the
  marketplace's virtual clock, the paper's §2.6 event-driven design, so
  crowd operators from different pipeline stages have HIT batches
  outstanding over overlapping virtual intervals. It needs the platform's
  multi-client ``submit_hit_group``/``harvest`` API;
* the **depth-first interpreter** (:func:`run_plan_depth_first`) walks the
  plan tree recursively and materialises every operator boundary. It
  serves blocking platforms, which only offer ``post_hit_group``.

For a fixed seed both produce identical rows, costs, and vote streams —
pipelining preserves the depth-first posting order and overlaps only
virtual time — so the choice is observable solely through latency and
EXPLAIN telemetry (``tests/test_scheduler.py`` enforces this, running the
depth-first leg through
:class:`~repro.experiments.harness.BlockingPlatform`).

Crowd operators still materialise their own *inputs* under both executors:
HIT batching (merging, §2.6) spans an operator's whole tuple set, so a
crowd operator drains its input queue before posting. The pipelining wins
come from sibling operators and independent per-group/per-side batches
overlapping, plus chunked row flow through the computed operators.
"""

from __future__ import annotations

from repro.core.context import QueryContext
from repro.core.crowd_calls import evaluate_with_crowd, run_predicate_calls
from repro.core.join_exec import execute_join
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
from repro.core.sort_exec import execute_sort
from repro.errors import ExecutionError
from repro.hits.manager import platform_supports_overlap
from repro.tasks.registry import DispatchTable
from repro.relational.expressions import UDFCall
from repro.relational.rows import Row


def run_plan(node: PlanNode, ctx: QueryContext) -> list[Row]:
    """Execute a plan tree; returns the output rows.

    Runs the pipelined executor when the platform supports overlap (see
    the module docstring), else interprets depth-first.
    """
    if platform_supports_overlap(ctx.manager.platform):
        from repro.core.scheduler import run_plan_pipelined

        return run_plan_pipelined(node, ctx)
    return run_plan_depth_first(node, ctx)


NODE_EXECUTORS = DispatchTable("depth-first plan-node executor")
"""Depth-first handlers keyed by ``PlanNode.kind``.

Each handler takes ``(node, ctx)`` and recurses through
:func:`run_plan_depth_first` for its inputs. Out-of-tree node kinds
register here (and in :data:`repro.core.scheduler.PIPELINE_GENERATORS` for
the pipelined path) without touching this module.
"""


def register_node_executor(kind: str, handler=None, *, replace: bool = False):
    """Register a depth-first executor for a plan-node kind."""
    return NODE_EXECUTORS.register(kind, handler, replace=replace)


def run_plan_depth_first(node: PlanNode, ctx: QueryContext) -> list[Row]:
    """The blocking-platform interpreter: recurse, materialise, apply."""
    run = NODE_EXECUTORS.lookup(node.kind)
    if run is None:
        raise ExecutionError(f"no executor for plan node {type(node).__name__}")
    return run(node, ctx)


# ---------------------------------------------------------------------------
# Operator bodies (shared by both executors)
# ---------------------------------------------------------------------------


def scan_rows(node: ScanNode, ctx: QueryContext) -> list[Row]:
    """Read the scanned table, qualifying columns with the alias."""
    table = ctx.catalog.table(node.table_name)
    rows = [row.prefixed(node.alias) for row in table.scan()]
    stats = ctx.stats_for(node)
    stats.rows_in += len(table)
    stats.rows_out += len(rows)
    return rows


def computed_filter_rows(
    node: ComputedFilterNode, rows: list[Row], ctx: QueryContext
) -> list[Row]:
    """Apply a computer-evaluable predicate (streamable: call per chunk)."""
    assert node.predicate is not None
    env = ctx.catalog.functions()
    kept = [row for row in rows if node.predicate.evaluate(row, env)]
    stats = ctx.stats_for(node)
    stats.rows_in += len(rows)
    stats.rows_out += len(kept)
    return kept


def limit_rows(node: LimitNode, rows: list[Row], ctx: QueryContext) -> list[Row]:
    """Keep the first ``count`` rows."""
    stats = ctx.stats_for(node)
    stats.rows_in += len(rows)
    kept = rows[: node.count]
    stats.rows_out += len(kept)
    return kept


def crowd_filter_rows(
    node: CrowdPredicateNode, rows: list[Row], ctx: QueryContext
) -> list[Row]:
    """Run a crowd predicate over materialised input rows."""
    assert node.predicate is not None
    stats = ctx.stats_for(node)
    stats.rows_in += len(rows)
    if not rows:
        return []
    bindings = run_predicate_calls(node.predicate, rows, ctx, "where")
    stats.hits += bindings.outcome.hit_count
    stats.assignments += bindings.outcome.assignment_count
    stats.elapsed_seconds += bindings.outcome.elapsed_seconds
    stats.signals.update(bindings.signals)
    kept = [
        row
        for row in rows
        if evaluate_with_crowd(node.predicate, row, bindings, ctx)
    ]
    stats.rows_out += len(kept)
    return kept


def join_rows(
    node: JoinNode, left_rows: list[Row], right_rows: list[Row], ctx: QueryContext
) -> list[Row]:
    """Run the crowd equijoin over materialised inputs."""
    left_aliases = plan_aliases(node.inputs[0])
    right_aliases = plan_aliases(node.inputs[1])
    return execute_join(node, left_rows, right_rows, ctx, left_aliases, right_aliases)


def plan_aliases(node: PlanNode) -> set[str]:
    """Every scan alias bound inside a subtree."""
    return {n.alias for n in node.walk() if n.kind == ScanNode.kind}


def project_crowd_calls(node: ProjectNode, ctx: QueryContext) -> list[UDFCall]:
    """The generative crowd calls appearing in a select list (§2.2)."""
    if node.star:
        return []
    return [
        call
        for item in node.items
        for call in item.expr.udf_calls()
        if not ctx.catalog.has_function(call.name)
    ]


def project_rows(node: ProjectNode, rows: list[Row], ctx: QueryContext) -> list[Row]:
    """Evaluate the select list; may trigger generative crowd work.

    Streamable per chunk only when :func:`project_crowd_calls` is empty —
    generative select items batch HITs over the whole input.
    """
    stats = ctx.stats_for(node)
    stats.rows_in += len(rows)
    if node.star:
        stats.rows_out += len(rows)
        return rows
    crowd_calls = project_crowd_calls(node, ctx)
    bindings = None
    if crowd_calls and rows:
        from repro.relational.expressions import And

        synthetic = And(operands=tuple(item.expr for item in node.items))
        bindings = run_predicate_calls(synthetic, rows, ctx, "select")
        stats.hits += bindings.outcome.hit_count
        stats.assignments += bindings.outcome.assignment_count
        stats.signals.update(bindings.signals)

    schema = node.output_schema
    env = ctx.catalog.functions()
    crowd_items = [
        bindings is not None
        and any(not ctx.catalog.has_function(call.name) for call in item.expr.udf_calls())
        for item in node.items
    ]
    out: list[Row] = []
    for row in rows:
        values = {}
        for item, name, crowd in zip(node.items, schema.names, crowd_items):
            if crowd:
                values[name] = evaluate_with_crowd(item.expr, row, bindings, ctx)
            else:
                values[name] = _evaluate_plain(item.expr, row, env)
        out.append(Row(schema, values))
    stats.rows_out += len(out)
    return out


def _evaluate_plain(expr, row: Row, env) -> object:
    """Evaluate a non-crowd select expression; bare aliases unsupported."""
    if isinstance(expr, UDFCall) and expr.name not in env:
        raise ExecutionError(
            f"crowd UDF {expr.name!r} reached plain evaluation — planner bug"
        )
    return expr.evaluate(row, env)


# ---------------------------------------------------------------------------
# Builtin node-kind registrations (the paper's operators)
# ---------------------------------------------------------------------------


def _exec_computed_filter(node: ComputedFilterNode, ctx: QueryContext) -> list[Row]:
    return computed_filter_rows(node, run_plan_depth_first(node.inputs[0], ctx), ctx)


def _exec_crowd_filter(node: CrowdPredicateNode, ctx: QueryContext) -> list[Row]:
    return crowd_filter_rows(node, run_plan_depth_first(node.inputs[0], ctx), ctx)


def _exec_adaptive_filter(node: AdaptiveFilterNode, ctx: QueryContext) -> list[Row]:
    from repro.core.adaptive import adaptive_filter_rows

    return adaptive_filter_rows(node, run_plan_depth_first(node.inputs[0], ctx), ctx)


def _exec_join(node: JoinNode, ctx: QueryContext) -> list[Row]:
    left_rows = run_plan_depth_first(node.inputs[0], ctx)
    right_rows = run_plan_depth_first(node.inputs[1], ctx)
    return join_rows(node, left_rows, right_rows, ctx)


def _exec_sort(node: SortNode, ctx: QueryContext) -> list[Row]:
    rows = run_plan_depth_first(node.inputs[0], ctx)
    return execute_sort(node, rows, ctx)


def _exec_project(node: ProjectNode, ctx: QueryContext) -> list[Row]:
    return project_rows(node, run_plan_depth_first(node.inputs[0], ctx), ctx)


def _exec_limit(node: LimitNode, ctx: QueryContext) -> list[Row]:
    return limit_rows(node, run_plan_depth_first(node.inputs[0], ctx), ctx)


NODE_EXECUTORS.register(ScanNode.kind, scan_rows)
NODE_EXECUTORS.register(ComputedFilterNode.kind, _exec_computed_filter)
NODE_EXECUTORS.register(CrowdPredicateNode.kind, _exec_crowd_filter)
NODE_EXECUTORS.register(AdaptiveFilterNode.kind, _exec_adaptive_filter)
NODE_EXECUTORS.register(JoinNode.kind, _exec_join)
NODE_EXECUTORS.register(SortNode.kind, _exec_sort)
NODE_EXECUTORS.register(ProjectNode.kind, _exec_project)
NODE_EXECUTORS.register(LimitNode.kind, _exec_limit)
