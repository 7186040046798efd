"""Executing crowd UDF calls: argument binding, payload building, combining.

The bridge between expressions in a query and HIT payloads: evaluate a
call's arguments against a row, reduce them to item references, build
payloads, post them through :meth:`QueryContext.post`, and combine the
votes back into per-item answers usable during expression evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.combine.adaptive import AdaptivePolicy, needs_more_votes
from repro.combine.base import combine_corpus
from repro.combine.normalize import get_normalizer
from repro.core.context import QueryContext
from repro.errors import ExecutionError, PlanError
from repro.hits.hit import (
    FilterPayload,
    FilterQuestion,
    GenerativePayload,
    GenerativeQuestion,
    Payload,
    filter_qid,
    generative_qid,
)
from repro.hits.manager import BatchOutcome, PendingBatch
from repro.hits.vote_columns import VoteColumns, normalized_values
from repro.metrics.agreement import feature_kappa
from repro.relational.expressions import (
    And,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Not,
    Or,
    UDFCall,
)
from repro.relational.rows import Row
from repro.tasks.base import Task, resolve_item_ref
from repro.tasks.registry import (
    ROLE_FILTER,
    ROLE_GENERATIVE,
    spec_for_task,
    task_role,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import ExecutionConfig
    from repro.relational.catalog import Catalog
    from repro.tasks.filter import FilterTask
    from repro.tasks.generative import GenerativeTask


def evaluate_arg(expr: Expression, row: Row, env: Mapping) -> object:
    """Evaluate a UDF argument; bare aliases resolve to the row slice.

    ``isFemale(c)`` passes the whole tuple bound to alias ``c``: the value
    is the mapping of that alias's columns. Qualified references
    (``c.img``) and computed expressions evaluate normally.
    """
    if isinstance(expr, ColumnRef) and expr.qualifier is None:
        if expr.name not in row.schema:
            prefix = f"{expr.name}."
            slice_values = {
                name: row[name] for name in row.schema.names if name.startswith(prefix)
            }
            if slice_values:
                return slice_values
    return expr.evaluate(row, env)


def call_item_ref(call: UDFCall, row: Row, env: Mapping) -> str:
    """The item reference a call is 'about' (its first argument)."""
    if not call.args:
        raise ExecutionError(f"crowd UDF {call.name!r} called with no arguments")
    return resolve_item_ref(evaluate_arg(call.args[0], row, env))


def template_bindings(
    task: Task, call: UDFCall, row: Row, env: Mapping, source: str = "tuple"
) -> dict[tuple[str, str], object]:
    """(source, param) → value bindings for prompt rendering."""
    task.validate_arity(len(call.args))
    bindings: dict[tuple[str, str], object] = {}
    for param, arg in zip(task.params, call.args):
        bindings[(source, param)] = resolve_item_ref(evaluate_arg(arg, row, env))
    return bindings


# ---------------------------------------------------------------------------
# Payload builders
# ---------------------------------------------------------------------------


def filter_payload_for(
    task: FilterTask, call: UDFCall, row: Row, env: Mapping
) -> FilterPayload:
    """A single-question filter payload for one row."""
    bindings = template_bindings(task, call, row, env)
    return FilterPayload(
        task_name=task.name,
        questions=(
            FilterQuestion(
                item=call_item_ref(call, row, env),
                prompt_html=task.prompt.render(bindings),
            ),
        ),
        yes_text=task.yes_text,
        no_text=task.no_text,
    )


def generative_payload_for(
    task: GenerativeTask, item_ref: str, prompt_html: str = ""
) -> GenerativePayload:
    """A single-question generative payload for one item."""
    return GenerativePayload(
        task_name=task.name,
        questions=(GenerativeQuestion(item=item_ref, prompt_html=prompt_html),),
        fields=task.field_specs,
    )


# ---------------------------------------------------------------------------
# Running calls
# ---------------------------------------------------------------------------


@dataclass
class CrowdBindings:
    """Crowd answers per task, keyed by item reference.

    * filter tasks: ref → bool
    * generative tasks: ref → {field name: combined value}
    """

    filters: dict[str, dict[str, bool]] = field(default_factory=dict)
    generative: dict[str, dict[str, dict[str, object]]] = field(default_factory=dict)
    outcome: BatchOutcome = field(default_factory=BatchOutcome)
    signals: dict[str, float] = field(default_factory=dict)


def run_filter_call(
    call: UDFCall,
    rows: Sequence[Row],
    ctx: QueryContext,
    label: str,
) -> tuple[dict[str, bool], BatchOutcome]:
    """Execute one filter task over distinct item refs; returns ref → pass."""
    task = ctx.catalog.task(call.name)
    spec = spec_for_task(task)
    if spec.role != ROLE_FILTER:
        raise PlanError(f"{call.name!r} used as a filter but is {type(task).__name__}")
    build_payload = spec.payload_builder or filter_payload_for
    env = ctx.catalog.functions()
    units: list[list[Payload]] = []
    seen: set[str] = set()
    for row in rows:
        ref = call_item_ref(call, row, env)
        if ref in seen:
            continue
        seen.add(ref)
        units.append([build_payload(task, call, row, env)])
    if not units:
        return {}, BatchOutcome()
    if ctx.config.adaptive is not None:
        columns, outcome = adaptive_single_question_votes(
            units,
            [filter_qid(task.name, p[0].questions[0].item) for p in units],  # type: ignore[attr-defined]
            ctx,
            label,
        )
    else:
        outcome = ctx.post(
            units, ctx.config.filter_batch_size, ctx.config.assignments, label
        ).result()
        columns = outcome.columns
    combiner = ctx.combiner_for(task.combiner)
    decisions = combine_corpus(combiner, columns.matching(":filter:"))
    answers = {
        qid.rsplit(":filter:", 1)[1]: bool(value) for qid, value in decisions.items()
    }
    return answers, outcome


@dataclass
class PendingGenerative:
    """One or more generative tasks posted but not yet collected.

    Produced by :func:`begin_generative_units`; :meth:`collect` harvests the
    underlying HIT group and combines votes into per-item field values.
    """

    tasks: dict[str, GenerativeTask]
    task_items: dict[str, tuple[str, ...]]
    ctx: QueryContext
    pending: PendingBatch | None = None
    """The posted group, or None when there was nothing to post.

    Callers ordering harvests by finish time sort the non-None ``pending``
    handles themselves (see :func:`repro.hits.manager.collect_pending`);
    an empty pending has no meaningful finish time."""

    def collect(
        self,
    ) -> tuple[dict[str, dict[str, dict[str, object]]], BatchOutcome, dict[str, VoteColumns]]:
        """Harvest and combine; see :func:`run_generative_units` for shape."""
        if self.pending is None:
            return {}, BatchOutcome(), {}
        outcome = self.pending.result()
        return _combine_generative(self.tasks, self.task_items, self.ctx, outcome)


def begin_generative_units(
    task_items: Mapping[str, Sequence[str]],
    ctx: QueryContext,
    label: str,
    combine_tasks: bool = False,
    batch_size: int | None = None,
) -> PendingGenerative:
    """Post one or more generative tasks over item lists without collecting.

    The non-blocking half of :func:`run_generative_units`: the join executor
    begins both of its feature-extraction sides before collecting either, so
    under the pipelined executor the two sides' HIT batches are outstanding
    over the same virtual interval (§2.6 overlap). Against the blocking
    manager the batch resolves at posting time and ``collect()`` merely
    combines — serial behaviour, draw-for-draw.
    """
    tasks = {name: ctx.catalog.task(name) for name in task_items}
    builders = {}
    for name, task in tasks.items():
        spec = spec_for_task(task)
        if spec.role != ROLE_GENERATIVE:
            raise PlanError(
                f"{name!r} used generatively but is {type(task).__name__}"
            )
        builders[name] = spec.payload_builder or generative_payload_for

    units: list[list[Payload]] = []
    item_lists = [tuple(items) for items in task_items.values()]
    if combine_tasks and len(tasks) > 1 and len(set(item_lists)) != 1:
        # Combining requires the tasks to share their item list; fall back
        # to per-task merging otherwise.
        combine_tasks = False
    if combine_tasks and len(tasks) > 1:
        for item in item_lists[0]:
            units.append(
                [builders[name](tasks[name], item) for name in task_items]
            )
    else:
        for name, items in task_items.items():
            for item in items:
                units.append([builders[name](tasks[name], item)])

    frozen_items = {name: tuple(items) for name, items in task_items.items()}
    if not units:
        return PendingGenerative(tasks, frozen_items, ctx)  # type: ignore[arg-type]
    pending = ctx.post(
        units,
        batch_size or ctx.config.generative_batch_size,
        ctx.config.assignments,
        label,
    )
    return PendingGenerative(tasks, frozen_items, ctx, pending)  # type: ignore[arg-type]


def generative_hits(tasks: int, items: int, config: "ExecutionConfig") -> int:
    """HITs :func:`begin_generative_units` posts for ``tasks`` tasks over
    the same ``items`` refs: one unit per item when ``combine_features``
    combines them, else one per task and item."""
    units = items if config.combine_features else items * tasks
    return math.ceil(units / config.generative_batch_size) if tasks else 0


def run_generative_units(
    task_items: Mapping[str, Sequence[str]],
    ctx: QueryContext,
    label: str,
    combine_tasks: bool = False,
    batch_size: int | None = None,
) -> tuple[dict[str, dict[str, dict[str, object]]], BatchOutcome, dict[str, VoteColumns]]:
    """Run one or more generative tasks over item lists.

    ``task_items`` maps task name → item refs. With ``combine_tasks`` the
    tasks are *combined*: each HIT unit asks all tasks about one item
    (requires identical item lists, the §3.3.4 combined feature interface).

    Returns (task → ref → field values, outcome, task → vote corpus). A
    task's corpus holds its normalized votes, field by field, each field's
    questions in item order; items without votes are left out.
    """
    return begin_generative_units(
        task_items, ctx, label, combine_tasks=combine_tasks, batch_size=batch_size
    ).collect()


def _combine_generative(
    tasks: Mapping[str, GenerativeTask],
    task_items: Mapping[str, Sequence[str]],
    ctx: QueryContext,
    outcome: BatchOutcome,
) -> tuple[dict[str, dict[str, dict[str, object]]], BatchOutcome, dict[str, VoteColumns]]:
    """Normalize, combine, and index one generative outcome's votes."""
    results: dict[str, dict[str, dict[str, object]]] = {}
    corpora: dict[str, VoteColumns] = {}
    columns = outcome.columns
    asked = columns.sizes()
    for name, task in tasks.items():
        results[name] = {}
        fields: list[VoteColumns] = []
        for gen_field in task.fields:
            normalizer = get_normalizer(gen_field.normalizer)
            item_of = {
                generative_qid(name, item, gen_field.name): item
                for item in task_items[name]
            }
            field_votes = columns.select([qid for qid in item_of if qid in asked])
            if not gen_field.is_categorical:
                field_votes = field_votes.with_values(
                    normalized_values(field_votes.value, normalizer)
                )
            combiner = ctx.combiner_for(gen_field.combiner)
            decisions = combine_corpus(combiner, field_votes)
            for qid, value in decisions.items():
                results[name].setdefault(item_of[qid], {})[gen_field.name] = value
            fields.append(field_votes)
        if len(fields) == 1:
            corpora[name] = fields[0]
        else:
            corpora[name] = VoteColumns()
            for field_votes in fields:
                corpora[name].extend(field_votes)
    return results, outcome, corpora


def adaptive_single_question_votes(
    units: Sequence[Sequence[Payload]],
    qids: Sequence[str],
    ctx: QueryContext,
    label: str,
) -> tuple[VoteColumns, BatchOutcome]:
    """Adaptive vote collection for single-question units (§6 extension).

    Posts an initial small number of assignments, then re-posts only the
    still-contested questions in increments until the margin rule is
    satisfied or the per-question budget runs out. Returns the votes on
    ``qids`` (in that order; a question may have none) and every round's
    merged outcome. Each round posts under its own
    :attr:`~repro.hits.hit.HIT.cache_round`, so a top-up asks the crowd
    again instead of hitting the previous round's cache entry.
    """
    policy: AdaptivePolicy = ctx.config.adaptive or AdaptivePolicy()
    votes = VoteColumns.from_corpus({qid: () for qid in qids})
    # The first merge sets ``total.post_time`` (see BatchOutcome.merge).
    total = BatchOutcome()
    pending = list(zip(units, qids))
    round_votes = policy.initial_votes
    cache_round = 1
    while pending:
        round_units = [unit for unit, _ in pending]
        outcome = ctx.post(
            round_units,
            ctx.config.filter_batch_size,
            round_votes,
            label,
            cache_round=cache_round,
        ).result()
        total.merge(outcome)
        votes.extend(outcome.columns.select([q for q in outcome.columns if q in votes]))
        tally = votes.tally()
        pending = [
            (unit, qid) for unit, qid in pending if needs_more_votes(tally[qid], policy)
        ]
        round_votes = policy.step_votes
        cache_round += 1
    return votes, total


# ---------------------------------------------------------------------------
# Predicate evaluation with crowd bindings
# ---------------------------------------------------------------------------


def evaluate_with_crowd(
    expr: Expression,
    row: Row,
    bindings: CrowdBindings,
    ctx: QueryContext,
) -> object:
    """Evaluate an expression, answering crowd UDF calls from ``bindings``."""
    env = ctx.catalog.functions()

    def recurse(node: Expression) -> object:
        if isinstance(node, UDFCall):
            if node.name in env:
                return node.evaluate(row, env)
            ref = call_item_ref(node, row, env)
            if node.name in bindings.filters:
                return bindings.filters[node.name].get(ref, False)
            if node.name in bindings.generative:
                values = bindings.generative[node.name].get(ref, {})
                if node.field is not None:
                    if node.field not in values:
                        raise ExecutionError(
                            f"no combined value for {node.name}(...).{node.field} "
                            f"on item {ref!r}"
                        )
                    return values[node.field]
                task = ctx.catalog.task(node.name)
                if len(task.fields) == 1:
                    return values.get(task.fields[0].name)
                return values
            raise ExecutionError(
                f"no crowd results bound for UDF {node.name!r}"
            )
        if isinstance(node, Comparison):
            left = recurse(node.left)
            right = recurse(node.right)
            return Comparison(op=node.op, left=Literal(left), right=Literal(right)).evaluate(row, env)
        if isinstance(node, And):
            return all(recurse(op) for op in node.operands)
        if isinstance(node, Or):
            return any(recurse(op) for op in node.operands)
        if isinstance(node, Not):
            return not recurse(node.operand)
        if isinstance(node, BinaryOp):
            return BinaryOp(
                op=node.op, left=Literal(recurse(node.left)), right=Literal(recurse(node.right))
            ).evaluate(row, env)
        return node.evaluate(row, env)

    return recurse(expr)


def run_predicate_calls(
    predicate: Expression,
    rows: Sequence[Row],
    ctx: QueryContext,
    label: str,
) -> CrowdBindings:
    """Run every crowd UDF call inside a predicate over the rows."""
    bindings = CrowdBindings()
    env = ctx.catalog.functions()
    generative_items: dict[str, list[str]] = {}
    generative_calls: dict[str, UDFCall] = {}
    for call in predicate.udf_calls():
        if call.name in env:
            continue
        task = ctx.catalog.task(call.name)
        role = task_role(task)
        if role == ROLE_FILTER:
            if call.name not in bindings.filters:
                answers, outcome = run_filter_call(call, rows, ctx, f"{label}:{call.name}")
                bindings.filters[call.name] = answers
                bindings.outcome.merge(outcome)
                if answers:
                    bindings.signals[f"{call.name}.yes_fraction"] = sum(
                        answers.values()
                    ) / len(answers)
        elif role == ROLE_GENERATIVE:
            refs = generative_items.setdefault(call.name, [])
            generative_calls[call.name] = call
            seen = set(refs)
            for row in rows:
                ref = call_item_ref(call, row, env)
                if ref not in seen:
                    seen.add(ref)
                    refs.append(ref)
        else:
            raise PlanError(
                f"task {call.name!r} ({type(task).__name__}) cannot appear in "
                "a WHERE predicate"
            )
    if generative_items:
        results, outcome, corpora = run_generative_units(
            generative_items,
            ctx,
            f"{label}:gen",
            combine_tasks=ctx.config.combine_features,
        )
        bindings.generative.update(results)
        bindings.outcome.merge(outcome)
        for task_name, corpus in corpora.items():
            if len(corpus):
                bindings.signals[f"{task_name}.kappa"] = feature_kappa(corpus)
    return bindings


def predicate_hits(
    calls: Sequence[UDFCall], rows: int, catalog: "Catalog", config: "ExecutionConfig"
) -> int:
    """HITs :func:`run_predicate_calls` posts for ``calls`` over ``rows``
    rows: one filter posting per filter task, and one generative posting
    for all the generative tasks (first rounds only, under an ``adaptive``
    vote policy). Execution asks once per distinct ref, so the count is
    exact when no two rows share a ref and an over-count above a join,
    where they do."""
    roles: dict[str, str] = {}
    for call in calls:
        if catalog.has_task(call.name) and not catalog.has_function(call.name):
            roles[call.name] = task_role(catalog.task(call.name))
    filters = sum(role == ROLE_FILTER for role in roles.values())
    generative = sum(role == ROLE_GENERATIVE for role in roles.values())
    return filters * math.ceil(rows / config.filter_batch_size) + generative_hits(
        generative, rows, config
    )
