"""Crowd join execution (§3): block nested loops over candidate pairs.

Qurk "implements a block nested loop join, and uses the results of the HIT
comparisons to evaluate whether two elements satisfy the join condition".
The executor hands this module both inputs fully materialised (HIT batching
spans whole tuple sets); it applies POSSIBLY feature filtering (equality
features across the tables plus unary feature predicates on one side),
shapes the surviving candidates into the configured interface's HITs, and
combines the votes into join results. The two feature-extraction passes
are posted before either is collected, so under the pipelined executor the
left and right linear scans overlap in virtual time (§2.6).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.combine.base import combine_corpus
from repro.core.context import QueryContext
from repro.core.crowd_calls import (
    adaptive_single_question_votes,
    begin_generative_units,
    evaluate_arg,
    generative_hits,
)
from repro.hits.manager import collect_pending
from repro.core.plan import JoinNode, plan_aliases
from repro.errors import PlanError
from repro.hits.hit import (
    JoinGridPayload,
    JoinPair,
    JoinPairsPayload,
    Payload,
    join_qid,
    split_pair,
)
from repro.hits.vote_columns import VoteColumns
from repro.joins.batching import (
    JoinInterface,
    all_pairs,
    grid_count,
    smart_grids,
    smart_grids_for_candidates,
)
from repro.joins.feature_filter import (
    confident_feature_values,
    evaluate_features,
    filter_candidates,
)
from repro.metrics.agreement import feature_kappa, mean_pair_agreement
from repro.relational.expressions import (
    UNKNOWN,
    Comparison,
    Expression,
    Literal,
    UDFCall,
)
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.tasks.registry import ROLE_GENERATIVE, ROLE_JOIN, task_role

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.adaptive import SelectivityBook
    from repro.core.context import ExecutionConfig
    from repro.relational.catalog import Catalog
    from repro.tasks.equijoin import EquiJoinTask
    from repro.tasks.generative import GenerativeTask

_EMPTY_ROW = Row(Schema([]), {})
"""The row a substituted unary POSSIBLY predicate evaluates against."""

JOIN_MATCH_PRIOR = 0.1
"""Assumed fraction of candidate pairs that truly join, pre-observation."""


# The selectivity-book keys a join observes under, and its forecast reads:
# an equality feature's σ, a unary clause's pass rate, the match rate.
def feature_key(name: str) -> str:
    return f"feature:{name}"


def unary_key(name: str) -> str:
    return f"unary:{name}"


def join_key(task_name: str) -> str:
    return f"join:{task_name}"


class _PossiblyClauses:
    """Classified POSSIBLY expressions."""

    def __init__(self) -> None:
        # (feature key, left call, right call)
        self.equality: list[tuple[str, UDFCall, UDFCall]] = []
        # (expression, side, call) with side in {"left", "right"}
        self.unary: list[tuple[Expression, str, UDFCall]] = []


def _classify_possibly(
    node: JoinNode,
    left_aliases: set[str],
    right_aliases: set[str],
    catalog: Catalog,
) -> _PossiblyClauses:
    clauses = _PossiblyClauses()
    for expr in node.possibly:
        calls = [
            call for call in expr.udf_calls() if not catalog.has_function(call.name)
        ]
        for call in calls:
            task = catalog.task(call.name)
            if task_role(task) != ROLE_GENERATIVE:
                raise PlanError(
                    f"POSSIBLY clause task {call.name!r} must be Generative"
                )
        sides = [_call_side(call, left_aliases, right_aliases) for call in calls]
        if (
            len(calls) == 2
            and isinstance(expr, Comparison)
            and expr.op == "="
            and set(sides) == {"left", "right"}
        ):
            left_call = calls[sides.index("left")]
            right_call = calls[sides.index("right")]
            clauses.equality.append((left_call.name, left_call, right_call))
        elif len(calls) == 1:
            clauses.unary.append((expr, sides[0], calls[0]))
        else:
            raise PlanError(
                f"unsupported POSSIBLY clause {expr}; expected "
                "feature(l) = feature(r) or a single-side predicate"
            )
    return clauses


def _call_side(
    call: UDFCall, left_aliases: set[str], right_aliases: set[str]
) -> str:
    refs = call.references()
    bindings = {ref.split(".", 1)[0] if "." in ref else ref for ref in refs}
    if bindings and bindings <= left_aliases:
        return "left"
    if bindings and bindings <= right_aliases:
        return "right"
    raise PlanError(
        f"POSSIBLY call {call} references {sorted(bindings)}, which is not "
        "confined to one side of the join"
    )


def _field_value(
    task: GenerativeTask, call: UDFCall, values: Mapping[str, object]
) -> object:
    field_name = call.field or task.single_field.name
    return values.get(field_name, UNKNOWN)


def execute_join(
    node: JoinNode,
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    ctx: QueryContext,
    left_aliases: set[str],
    right_aliases: set[str],
) -> list[Row]:
    """Run the crowd equijoin; returns merged rows for matching pairs."""
    assert node.condition is not None
    task = ctx.catalog.task(node.condition.name)
    if task_role(task) != ROLE_JOIN:
        raise PlanError(f"join task {node.condition.name!r} is not a join task")
    stats = ctx.stats_for(node)
    stats.rows_in = len(left_rows) + len(right_rows)
    env = ctx.catalog.functions()
    left_arg, right_arg = node.condition.args

    left_map = _ref_map(left_rows, left_arg, env)
    right_map = _ref_map(right_rows, right_arg, env)
    left_refs = list(left_map)
    right_refs = list(right_map)
    if not left_refs or not right_refs:
        return []

    features: dict[str, tuple[dict[str, object], dict[str, object]]] = {}
    corpora: dict[str, VoteColumns] = {}
    if ctx.config.use_feature_filters and node.possibly:
        clauses = _classify_possibly(node, left_aliases, right_aliases, ctx.catalog)
        left_refs, right_refs, features, corpora = _run_feature_extraction(
            node, clauses, left_refs, right_refs, ctx
        )
        if ctx.config.auto_feature_selection and features:
            report = evaluate_features(
                left_refs,
                right_refs,
                features,
                corpora,
            )
            features = {name: features[name] for name in report.kept}
            stats.signals["features_kept"] = float(len(report.kept))
            stats.signals["features_dropped"] = float(len(report.dropped))
            if ctx.adapt is not None:
                # Feature keep/drop is a re-plan decision: the UNKNOWN-aware
                # σ just measured decides whether the feature stays in the
                # remaining subtree's plan.
                from repro.core.adaptive import ReplanEvent

                for decision in report.decisions:
                    if decision.keep:
                        continue
                    ctx.adapt.note_event(
                        ReplanEvent(
                            round=ctx.adapt.next_round(),
                            phase="feature-drop",
                            subject=f"{decision.name}: {decision.reason}",
                            estimate_before=decision.selectivity,
                            observed=decision.selectivity,
                            reordered=True,
                        )
                    )

    if features:
        candidates = filter_candidates(
            left_refs, right_refs, list(features.values())
        )
    else:
        candidates = all_pairs(left_refs, right_refs)
    cross = len(left_refs) * len(right_refs)
    stats.signals["candidate_pairs"] = float(len(candidates))
    stats.signals["cross_product"] = float(cross)
    if cross:
        stats.signals["filter_selectivity"] = len(candidates) / cross
        if ctx.adapt is not None:
            # Feed the observed per-feature selectivity back into the
            # query's estimate book under the keys join_forecast reads:
            # later queries on an engine sharing the book see the
            # measured pass rates.
            from repro.joins.selectivity import estimate_selectivity as _est

            for key, (left_values, right_values) in features.items():
                sigma = _est(
                    list(left_values.values()) or [UNKNOWN],
                    list(right_values.values()) or [UNKNOWN],
                )
                ctx.adapt.book.record_fraction(
                    feature_key(key), sigma, weight=float(len(left_values))
                )

    matches = _run_join_interface(task, candidates, left_refs, right_refs, ctx, node)

    out: list[Row] = []
    for left_ref, right_ref in matches:
        for lrow in left_map[left_ref]:
            for rrow in right_map[right_ref]:
                out.append(lrow.merged(rrow))
    stats.rows_out = len(out)
    return out


def _ref_map(rows: Sequence[Row], arg, env) -> dict[str, list[Row]]:
    mapping: dict[str, list[Row]] = {}
    from repro.tasks.base import resolve_item_ref

    for row in rows:
        ref = resolve_item_ref(evaluate_arg(arg, row, env))
        mapping.setdefault(ref, []).append(row)
    return mapping


def _run_feature_extraction(
    node: JoinNode,
    clauses: _PossiblyClauses,
    left_refs: list[str],
    right_refs: list[str],
    ctx: QueryContext,
):
    """Linear crowd passes extracting POSSIBLY features on both sides."""
    stats = ctx.stats_for(node)
    left_tasks: dict[str, list[str]] = {}
    right_tasks: dict[str, list[str]] = {}
    for _, left_call, right_call in clauses.equality:
        left_tasks[left_call.name] = left_refs
        right_tasks[right_call.name] = right_refs
    for _, side, call in clauses.unary:
        target = left_tasks if side == "left" else right_tasks
        target[call.name] = left_refs if side == "left" else right_refs

    # Both sides are posted before either is collected: under the pipelined
    # executor the two feature passes are outstanding over the same virtual
    # interval (the linear scans overlap, §2.6); against the blocking manager
    # each begin resolves at posting time, giving the serial left-then-right
    # execution draw-for-draw.
    left_pending = begin_generative_units(
        left_tasks, ctx, "join:features:left", combine_tasks=ctx.config.combine_features
    )
    right_pending = begin_generative_units(
        right_tasks, ctx, "join:features:right", combine_tasks=ctx.config.combine_features
    )
    collect_pending(
        [p.pending for p in (left_pending, right_pending) if p.pending is not None]
    )
    left_results, left_outcome, left_corpora = left_pending.collect()
    right_results, right_outcome, right_corpora = right_pending.collect()
    stats.add(left_outcome)
    stats.add(right_outcome)

    # Unary predicates prune one side before the cross product forms. Many
    # refs share a feature value, so the predicate runs once per value.
    for expr, side, call in clauses.unary:
        task = ctx.catalog.task(call.name)
        results = left_results if side == "left" else right_results
        refs = left_refs if side == "left" else right_refs
        call_results = results.get(call.name, {})
        verdicts: dict[object, bool] = {}
        kept = []
        for ref in refs:
            value = _field_value(task, call, call_results.get(ref, {}))
            if value is UNKNOWN:
                kept.append(ref)
                continue
            verdict = verdicts.get(value)
            if verdict is None:
                verdict = verdicts[value] = _evaluate_unary(expr, call, value)
            if verdict:
                kept.append(ref)
        if side == "left":
            left_refs = kept
        else:
            right_refs = kept
        stats.signals[f"{call.name}.selectivity"] = (
            len(kept) / len(refs) if refs else 1.0
        )
        if ctx.adapt is not None and refs:
            ctx.adapt.book.observe(unary_key(call.name), len(refs), len(kept))

    features: dict[str, tuple[dict[str, object], dict[str, object]]] = {}
    corpora: dict[str, VoteColumns] = {}
    for key, left_call, right_call in clauses.equality:
        left_task = ctx.catalog.task(left_call.name)
        right_task = ctx.catalog.task(right_call.name)
        # Filtering values use the abstention rule: contested labels demote
        # to UNKNOWN so noisy features (hair) filter weakly, not wrongly.
        left_field = left_call.field or left_task.single_field.name
        right_field = right_call.field or right_task.single_field.name
        left_corpus = left_corpora.get(left_call.name, VoteColumns())
        right_corpus = right_corpora.get(right_call.name, VoteColumns())
        left_confident = confident_feature_values(_field_corpus(left_corpus, left_field))
        right_confident = confident_feature_values(
            _field_corpus(right_corpus, right_field)
        )
        left_values = {ref: left_confident.get(ref, UNKNOWN) for ref in left_refs}
        right_values = {ref: right_confident.get(ref, UNKNOWN) for ref in right_refs}
        features[key] = (left_values, right_values)
        corpora[key] = merged = _overlay(left_corpus, right_corpus)
        if len(merged):
            stats.signals[f"{key}.kappa"] = feature_kappa(merged)
    return left_refs, right_refs, features, corpora


def _field_corpus(corpus: VoteColumns, field_name: str) -> VoteColumns:
    """Restrict a generative vote corpus to one field's questions."""
    suffix = f":{field_name}"
    return corpus.select([qid for qid in corpus if qid.endswith(suffix)])


def _overlay(left: VoteColumns, right: VoteColumns) -> VoteColumns:
    """Both sides' corpora as one, the way a dict update of ``left`` by
    ``right`` merges: ``left``'s questions then ``right``'s new ones, and a
    question both sides asked (a self-join) keeps ``right``'s votes."""
    merged = VoteColumns.from_corpus(dict.fromkeys([*left, *right], ()))
    merged.extend(left.select([qid for qid in left if qid not in right]))
    merged.extend(right)
    return merged


def _evaluate_unary(expr: Expression, call: UDFCall, value: object) -> bool:
    """Evaluate a unary POSSIBLY predicate with the call's value substituted."""

    def substitute(node: Expression) -> Expression:
        if node is call or node == call:
            return Literal(value)
        if isinstance(node, Comparison):
            return Comparison(
                op=node.op, left=substitute(node.left), right=substitute(node.right)
            )
        return node

    return bool(substitute(expr).evaluate(_EMPTY_ROW, {}))


def _grid_shape(
    left_count: int, right_count: int, config: ExecutionConfig, adaptive: bool
) -> tuple[int, int]:
    """The (rows, cols) grid a full cross product posts: the configured
    one, or its transpose when the adaptive optimizer runs and the
    transpose needs fewer grids (:func:`grid_count`)."""
    rows_dim, cols_dim = config.grid_rows, config.grid_cols
    if adaptive and grid_count(left_count, right_count, cols_dim, rows_dim) < (
        grid_count(left_count, right_count, rows_dim, cols_dim)
    ):
        return cols_dim, rows_dim
    return rows_dim, cols_dim


def _choose_grid_orientation(
    left_count: int,
    right_count: int,
    ctx: QueryContext,
    stats,
) -> tuple[int, int]:
    """Cost-based join-side choice for SmartBatch grids (adaptive only).

    With an asymmetric r×c grid the HIT count depends on which side of the
    join rides the rows (:func:`_grid_shape`). This is a mid-query re-plan:
    the side cardinalities used are the *observed* post-filter ref counts,
    not estimates. With a square grid (the default 5×5) or
    ``REPRO_ADAPT=0`` the configured orientation is kept, bit-identical to
    the static plan.
    """
    rows_dim, cols_dim = ctx.config.grid_rows, ctx.config.grid_cols
    shape = _grid_shape(left_count, right_count, ctx.config, ctx.adapt is not None)
    if shape != (rows_dim, cols_dim):
        from repro.core.adaptive import ReplanEvent

        state = ctx.adapt
        # predicted = what the configured (static) orientation would have
        # spent; actual = what the chosen orientation posts — so the log's
        # "hits predicted->actual" arrow reads as the reduction it is.
        state.note_event(
            ReplanEvent(
                round=state.next_round(),
                phase="join",
                subject=(
                    f"grid {rows_dim}x{cols_dim} -> {cols_dim}x{rows_dim} "
                    f"for |L|={left_count}, |R|={right_count}"
                ),
                rows_in=left_count + right_count,
                rows_out=left_count + right_count,
                predicted_hits=grid_count(left_count, right_count, rows_dim, cols_dim),
                actual_hits=grid_count(left_count, right_count, *shape),
                reordered=True,
            )
        )
        stats.signals["grid_swapped"] = 1.0
    return shape


def _pair_batch_size(config: ExecutionConfig) -> int:
    """Candidate pairs per HIT under the Simple or Naive interface."""
    return 1 if config.join_interface is JoinInterface.SIMPLE else config.naive_batch_size


def _run_join_interface(
    task: EquiJoinTask,
    candidates: list[tuple[str, str]],
    left_refs: list[str],
    right_refs: list[str],
    ctx: QueryContext,
    node: JoinNode,
) -> list[tuple[str, str]]:
    """Post the join HITs for the configured interface; combine votes."""
    if not candidates:
        return []
    stats = ctx.stats_for(node)
    interface = ctx.config.join_interface
    question = task.pair_question()
    units: list[list[Payload]] = []
    batch_size = 1

    if interface in (JoinInterface.SIMPLE, JoinInterface.NAIVE):
        units = [
            [JoinPairsPayload(task.name, (JoinPair(l, r),), question=question)]
            for l, r in candidates
        ]
        batch_size = _pair_batch_size(ctx.config)
    else:
        full_cross = len(candidates) == len(left_refs) * len(right_refs)
        if full_cross:
            # The block-count formula the swap decision rests on is exact
            # only when grids cover the full cross product; candidate-
            # pruned grids are packed per-left-block, where a transposed
            # orientation has no predictable win.
            grid_rows, grid_cols = _choose_grid_orientation(
                len(left_refs), len(right_refs), ctx, stats
            )
            grids = smart_grids(left_refs, right_refs, grid_rows, grid_cols)
        else:
            grids = smart_grids_for_candidates(
                candidates, ctx.config.grid_rows, ctx.config.grid_cols
            )
        units = [
            [
                JoinGridPayload(
                    task.name,
                    tuple(left_block),
                    tuple(right_block),
                    question=task.grid_question(),
                )
            ]
            for left_block, right_block in grids
        ]

    if ctx.config.adaptive is not None and interface is not JoinInterface.SMART:
        qids = [
            join_qid(task.name, unit[0].pairs[0].left, unit[0].pairs[0].right)  # type: ignore[attr-defined]
            for unit in units
        ]
        columns, outcome = adaptive_single_question_votes(
            units, qids, batch_size, ctx, "join:pairs"
        )
    else:
        outcome = ctx.post(
            units, batch_size, ctx.config.assignments, "join:pairs"
        ).result()
        columns = outcome.columns
    stats.add(outcome)

    corpus = columns.select(
        [qid for qid, votes in columns.sizes().items() if votes and ":join:" in qid]
    )
    if not len(corpus):
        return []
    combiner = ctx.combiner_for(task.combiner)
    decisions = combine_corpus(combiner, corpus)
    candidate_set = set(candidates)
    prefix = f"{task.name}:join:"  # join_qid's, before ``left|right``
    matches: list[tuple[str, str]] = []
    for qid, is_match in decisions.items():
        if is_match and qid.startswith(prefix):
            # A grid cell outside the candidates is no match.
            pair = split_pair(qid[len(prefix) :])
            if pair in candidate_set:
                matches.append(pair)
    matches.sort()
    if ctx.adapt is not None and candidates:
        ctx.adapt.book.observe(join_key(task.name), len(candidates), len(matches))
    # Reads the counts a majority combiner already took.
    stats.signals["mean_pair_agreement"] = mean_pair_agreement(corpus)
    stats.signals["matches"] = float(len(matches))
    return matches


def join_forecast(
    node: JoinNode,
    left_count: int,
    right_count: int,
    catalog: Catalog,
    config: ExecutionConfig,
    book: SelectivityBook,
) -> tuple[float, int]:
    """(output rows, HITs) of :func:`execute_join` over ``left_count`` ×
    ``right_count`` distinct refs, as the adaptive optimizer runs it.

    The feature pass is priced on the sides :func:`_classify_possibly`
    assigns; each unary clause prunes its side, and each equality feature
    the pairs, at the pass rate ``book`` holds under the key execution
    observes it under. The interface's HITs are counted with the
    executor's own batching, so the count is exact given those rates,
    except for grids over candidates an equality feature pruned, which
    :func:`smart_grids_for_candidates` packs per left block (estimated
    here from each block's expected distinct partners).
    """
    if not left_count or not right_count:
        return 0.0, 0
    clauses = _PossiblyClauses()
    hits = 0
    if config.use_feature_filters and node.possibly:
        aliases = [plan_aliases(side) for side in node.inputs]
        try:
            clauses = _classify_possibly(node, *aliases, catalog)
        except PlanError:
            pass  # execution raises it, before the join posts anything
        side_tasks: dict[str, set[str]] = {"left": set(), "right": set()}
        for _, left_call, right_call in clauses.equality:
            side_tasks["left"].add(left_call.name)
            side_tasks["right"].add(right_call.name)
        for _, side, call in clauses.unary:
            side_tasks[side].add(call.name)
        hits += generative_hits(len(side_tasks["left"]), left_count, config)
        hits += generative_hits(len(side_tasks["right"]), right_count, config)
        rates = {"left": 1.0, "right": 1.0}
        for _, side, call in clauses.unary:
            rates[side] *= book.estimate(unary_key(call.name))
        left_count = round(left_count * rates["left"])
        right_count = round(right_count * rates["right"])
    sigma = 1.0
    for key, _, _ in clauses.equality:
        sigma *= book.estimate(feature_key(key))
    candidates = round(left_count * right_count * sigma)
    if not candidates:
        return 0.0, hits
    if config.join_interface is not JoinInterface.SMART:
        hits += math.ceil(candidates / _pair_batch_size(config))
    elif clauses.equality:
        block_partners = right_count * (1 - (1 - sigma) ** config.grid_rows)
        hits += grid_count(
            left_count, math.ceil(block_partners), config.grid_rows, config.grid_cols
        )
    else:
        shape = _grid_shape(left_count, right_count, config, adaptive=True)
        hits += grid_count(left_count, right_count, *shape)
    assert node.condition is not None
    match_rate = book.estimate(join_key(node.condition.name), prior=JOIN_MATCH_PRIOR)
    return candidates * match_rate, hits
