"""Plan execution: :func:`run_plan` and the operator bodies.

One executor runs every query: :func:`run_plan` hands the plan to the
event-driven scheduler (:mod:`repro.core.scheduler`), which runs each
operator as a stepping task with bounded input queues over the
marketplace's virtual clock — the paper's §2.6 design, where operators
"communicate asynchronously through input queues". The functions below
are the operator bodies the scheduler's tasks call.

The platform decides only how each HIT group is posted. A platform with
the multi-client ``submit_hit_group``/``harvest`` API (the simulated
marketplace) keeps groups outstanding over overlapping virtual intervals;
a blocking platform, which only offers ``post_hit_group``, resolves each
group at posting, so the same schedule runs serially. The posting order is
the plan's post-order either way, and each group's dispatch draws from a
stream keyed by posting order, so rows, costs, and vote streams are
identical on both kinds of platform — only virtual latency differs
(``tests/test_scheduler.py`` enforces this, running the blocking leg
through :class:`~repro.experiments.harness.BlockingPlatform`).

Crowd operators materialise their own *inputs*: HIT batching (merging,
§2.6) spans an operator's whole tuple set, so a crowd operator drains its
input queue before posting. The pipelining wins come from sibling
operators and independent per-group/per-side batches overlapping, plus
chunked row flow through the computed operators.
"""

from __future__ import annotations

from repro.core.context import QueryContext
from repro.core.crowd_calls import evaluate_with_crowd, run_predicate_calls
from repro.core.join_exec import execute_join
from repro.core.plan import (
    ComputedFilterNode,
    CrowdPredicateNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
)
from repro.errors import ExecutionError
from repro.relational.expressions import UDFCall
from repro.relational.rows import Row


def run_plan(node: PlanNode, ctx: QueryContext) -> list[Row]:
    """Execute a plan tree with the pipelined scheduler; returns the rows."""
    from repro.core.scheduler import PipelineScheduler

    return PipelineScheduler(node, ctx).run()


# ---------------------------------------------------------------------------
# Operator bodies
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
