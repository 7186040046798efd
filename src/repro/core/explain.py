"""EXPLAIN with quality signals (§6, "Iterative Debugging").

"As future work, we want to design a SQL EXPLAIN-like interface which
annotates operators with signals such as rater agreement, comparison vs
rating agreement, and other indicators of where a query has gone astray."

After execution, each plan node renders with its HIT/assignment counts,
row flow, and the signals its operator collected (feature κ, pair
agreement, filter selectivity, comparison κ, ...). Signals that look
pathological get flagged so the workflow designer knows where to look.

Each node the scheduler ran additionally carries a pipeline column —
stage rank, pipeline depth, output-queue occupancy against its bound,
back-pressure stalls, and HIT-group posting telemetry — and the footer
reports the whole-query overlap economics (virtual makespan vs the serial
latency the same postings take when each group waits for the one before,
as on a blocking platform). See ``docs/API.md`` for the column glossary.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.context import OperatorStats
from repro.core.plan import PlanNode
from repro.util import vector as vector_toggle

KAPPA_WARNING = 0.35
AGREEMENT_WARNING = 0.7


def _signal_notes(stats: OperatorStats) -> list[str]:
    notes = []
    for name, value in sorted(stats.signals.items()):
        note = f"{name}={value:.3f}"
        if name.endswith("kappa") and value < KAPPA_WARNING:
            note += " [!] low agreement: question may be ambiguous"
        if name.endswith("agreement") and value < AGREEMENT_WARNING:
            note += " [!] workers disagree"
        notes.append(note)
    return notes


def _pipeline_note(stats: OperatorStats) -> str | None:
    """The per-operator pipeline column: stage, queue occupancy, posting."""
    ps = stats.pipeline
    if ps is None:
        return None
    parts = [f"stage={ps.stage}", f"depth={ps.depth}"]
    if ps.queue_capacity:
        parts.append(f"queue={ps.queue_peak}/{ps.queue_capacity}")
    if ps.chunks_emitted:
        parts.append(f"chunks={ps.chunks_emitted}")
    if ps.emit_stalls:
        parts.append(f"stalls={ps.emit_stalls}")
    if ps.groups_posted:
        parts.append(
            f"groups={ps.groups_posted} (peak {ps.peak_outstanding} outstanding)"
        )
        parts.append(f"live=[{ps.started_at:.0f}s..{ps.finished_at:.0f}s]")
    return "pipeline: " + ", ".join(parts)


def _store_line(summary: Mapping[str, object]) -> str:
    """The persistent-answer-store footer line (shared by the per-query
    EXPLAIN and the session summary)."""
    parts = [
        f"hits={summary.get('hits', 0)}",
        f"misses={summary.get('misses', 0)}",
        f"persistent_hits={summary.get('persistent_hits', 0)}",
        f"assignments_reused={summary.get('assignments_reused', 0)}",
        f"cost_saved=${summary.get('cost_saved', 0.0):.2f}",
    ]
    evictions_ttl = summary.get("evictions_ttl", 0)
    evictions_budget = summary.get("evictions_budget", 0)
    if evictions_ttl or evictions_budget:
        parts.append(f"evictions=ttl:{evictions_ttl}+budget:{evictions_budget}")
    parts.append(f"rows={summary.get('rows', 0)}")
    if summary.get("rebuilds"):
        parts.append(f"rebuilds={summary['rebuilds']}")
    if summary.get("degraded"):
        parts.append("degraded=memory-only")
    return "store: " + ", ".join(parts)


def plan_task_labels(plan: PlanNode, catalog) -> dict[str, str]:
    """task name → registry EXPLAIN label, for every crowd task a plan uses.

    Labels come from each task type's :class:`~repro.tasks.registry.
    TaskTypeSpec` (``explain_label``, defaulting to the registry key), so
    out-of-tree task types name themselves in EXPLAIN output without engine
    edits.
    """
    from repro.tasks.registry import spec_for_task

    labels: dict[str, str] = {}
    nodes = list(plan.walk())
    for node in list(nodes):
        nodes.extend(getattr(node, "members", ()))
    for node in nodes:
        exprs = []
        for attr in ("predicate", "condition"):
            value = getattr(node, attr, None)
            if value is not None:
                exprs.append(value)
        exprs.extend(getattr(node, "possibly", ()))
        for item in getattr(node, "items", ()):
            exprs.append(item.expr)
        for item in getattr(node, "order_items", ()):
            exprs.append(item.expr)
        for expr in exprs:
            for call in expr.udf_calls():
                if call.name not in labels and catalog.has_task(call.name):
                    labels[call.name] = spec_for_task(
                        catalog.task(call.name)
                    ).label()
    return labels


def render_explain(
    plan: PlanNode,
    node_stats: dict[int, OperatorStats],
    marketplace_stats: object | None = None,
    pipeline_summary: Mapping[str, float] | None = None,
    adaptive_summary: Mapping[str, object] | None = None,
    degradation_summary: Mapping[str, object] | None = None,
    store_summary: Mapping[str, object] | None = None,
    task_labels: Mapping[str, str] | None = None,
) -> str:
    """Render the plan tree annotated with collected operator signals.

    When ``marketplace_stats`` is provided (the simulated marketplace's
    aggregate counters), a footer reports the consideration/refusal
    economics — most importantly ``considerations_per_assignment``, the
    refusal-loop overhead of dispatch. When
    ``pipeline_summary`` is provided (the query ran pipelined), a second
    footer reports the overlap economics and each node carries its
    pipeline column. When ``adaptive_summary`` is provided (the adaptive
    optimizer ran), a third footer reports predicted vs. actual HIT
    counts and the re-plan event log; fused conjunct chains additionally
    render each member conjunct with its estimated vs. observed
    selectivity. When ``degradation_summary`` is provided (the resilience
    layer was armed) and anything actually happened — retries, reposts,
    injected faults, degraded operators, an absorbed abort — a
    ``resilience:`` footer itemises it; a fault-free resilient run emits
    no footer, keeping golden EXPLAIN output unchanged. When
    ``store_summary`` is provided (a persistent answer store is attached),
    a ``store:`` footer reports this query's cache traffic, the
    assignments it reused from *disk* (a previous process's crowd work)
    and the dollars that saved, eviction counts, and — if the store was
    rebuilt from a corrupt file or degraded to memory-only — says so.
    """
    lines: list[str] = []

    def emit_stats(stats: OperatorStats | None, indent: str) -> None:
        if stats is None:
            return
        pipeline_note = _pipeline_note(stats)
        if pipeline_note is not None:
            lines.append(f"{indent}    ~ {pipeline_note}")
        for note in _signal_notes(stats):
            lines.append(f"{indent}    ~ {note}")

    def visit(node: PlanNode, depth: int) -> None:
        indent = "  " * depth
        stats = node_stats.get(id(node))
        header = f"{indent}{node.label()}"
        if stats is not None and (stats.hits or stats.rows_in or stats.rows_out):
            header += (
                f"  [rows {stats.rows_in}->{stats.rows_out}"
                f", hits={stats.hits}, assignments={stats.assignments}]"
            )
        lines.append(header)
        emit_stats(stats, indent)
        # Fused adaptive chains carry their original conjuncts as
        # ``members`` (not plan inputs); render each with its own stats so
        # estimated vs. observed selectivity stays per-conjunct.
        for member in getattr(node, "members", ()):
            member_stats = node_stats.get(id(member))
            member_header = f"{indent}  · {member.label()}"
            if member_stats is not None and (
                member_stats.hits or member_stats.rows_in
            ):
                member_header += (
                    f"  [rows {member_stats.rows_in}->{member_stats.rows_out}"
                    f", hits={member_stats.hits}"
                    f", assignments={member_stats.assignments}]"
                )
            lines.append(member_header)
            emit_stats(member_stats, indent + "  ")
        for child in node.inputs:
            visit(child, depth + 1)

    visit(plan, 0)
    if task_labels:
        rendered = ", ".join(
            f"{name}={label}" for name, label in sorted(task_labels.items())
        )
        lines.append(f"tasks: {rendered}")
    if adaptive_summary is not None:
        parts = [
            f"replans={adaptive_summary.get('replans', 0)}",
            f"rounds={adaptive_summary.get('rounds', 0)}",
            f"fused_chains={adaptive_summary.get('fused_chains', 0)}",
        ]
        if "predicted_hits" in adaptive_summary:
            parts.append(f"predicted_hits={adaptive_summary['predicted_hits']}")
        if "actual_hits" in adaptive_summary:
            parts.append(f"actual_hits={adaptive_summary['actual_hits']}")
        if "predicted_cost" in adaptive_summary:
            parts.append(f"predicted_cost=${adaptive_summary['predicted_cost']}")
        if "actual_cost" in adaptive_summary:
            parts.append(f"actual_cost=${adaptive_summary['actual_cost']}")
        preflight = adaptive_summary.get("preflight")
        if isinstance(preflight, Mapping):
            parts.append(
                f"preflight=${preflight.get('projected_cost', 0.0)}"
                f"/${preflight.get('budget', 0.0)}"
            )
        lines.append("adaptive: " + ", ".join(parts))
        for event in adaptive_summary.get("events", []) or []:
            lines.append(f"  ~ replan log: {event}")
    if pipeline_summary is not None:
        makespan = pipeline_summary.get("makespan_seconds", 0.0)
        serial = pipeline_summary.get("serial_latency_seconds", 0.0)
        overlap = f", overlap_speedup={serial / makespan:.2f}x" if makespan > 0 else ""
        lines.append(
            "pipeline: "
            f"stages={pipeline_summary.get('stages', 0):.0f}"
            f", groups={pipeline_summary.get('groups_posted', 0):.0f}"
            f", peak_outstanding_groups="
            f"{pipeline_summary.get('peak_outstanding_groups', 0):.0f}"
            f", makespan={makespan:.0f}s"
            f", serial_latency={serial:.0f}s"
            f"{overlap}"
        )
    if degradation_summary is not None:
        counters = [
            (name, degradation_summary.get(name, 0))
            for name in (
                "transient_retries",
                "reposts",
                "reposted_hits",
                "recovered_assignments",
                "unfilled_assignments",
                "degraded_groups",
                "circuit_opens",
                "abandoned_assignments",
                "expired_slots",
                "spam_assignments",
                "straggler_assignments",
                "transient_errors",
            )
        ]
        operators = degradation_summary.get("degraded_operators") or []
        aborted = degradation_summary.get("aborted")
        if any(value for _, value in counters) or operators or aborted:
            parts = [f"{name}={value}" for name, value in counters if value]
            if operators:
                parts.append("degraded_operators=" + "|".join(str(op) for op in operators))
            lines.append("resilience: " + ", ".join(parts))
            if aborted:
                lines.append(f"  ~ aborted: {aborted}")
    if store_summary is not None:
        lines.append(_store_line(store_summary))
    if marketplace_stats is not None:
        considerations = getattr(marketplace_stats, "considerations", None)
        per_assignment = getattr(
            marketplace_stats, "considerations_per_assignment", None
        )
        if considerations is not None and per_assignment is not None:
            lines.append(
                "marketplace: "
                f"considerations={considerations}"
                f", refusals={getattr(marketplace_stats, 'refusals', 0)}"
                f", considerations_per_assignment={per_assignment:.3f}"
            )
        degraded = vector_toggle.status_note()
        if degraded is not None:
            lines.append(f"  ~ {degraded}")
    return "\n".join(lines)


def render_session_summary(stats: object) -> str:
    """The session footer: multi-query overlap and sharing economics.

    ``stats`` is a :class:`~repro.core.session.SessionStats` (duck-typed
    here to keep this module free of a session import). Reports the batch
    makespan against the sum of per-query latencies (the overlap win) and
    the cross-query cache traffic (the dedup win), plus per-query HIT-group
    admission counts so starvation is visible at a glance.
    """
    groups = getattr(stats, "groups_posted", {}) or {}
    admitted = " ".join(f"{key}={count}" for key, count in sorted(groups.items()))
    lines = [
        "session: "
        f"mode={getattr(stats, 'mode', '?')}"
        f", queries={getattr(stats, 'queries', 0)}"
        f" (completed={getattr(stats, 'completed', 0)}"
        f", failed={getattr(stats, 'failed', 0)})"
        f", makespan={getattr(stats, 'makespan_seconds', 0.0):.0f}s"
        f", serial_latency={getattr(stats, 'serial_latency_seconds', 0.0):.0f}s"
        f", overlap_speedup={getattr(stats, 'overlap_speedup', 1.0):.2f}x"
    ]
    lines.append(
        "session sharing: "
        f"cross_query_cache_hits={getattr(stats, 'cross_cache_hits', 0)}"
        f", assignments_reused={getattr(stats, 'cross_assignments_shared', 0)}"
        f", cost_saved=${getattr(stats, 'cost_saved', 0.0):.2f}"
    )
    store_summary = getattr(stats, "store_summary", None)
    if store_summary is not None:
        lines.append("session " + _store_line(store_summary))
    if admitted:
        lines.append(f"session admission: groups per query: {admitted}")
    return "\n".join(lines)
