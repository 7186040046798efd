"""Plan rewrites (§2.5).

The headline rule: relational operations a computer can evaluate are pushed
below crowd operators — "it's better to filter tables before joining them"
and HIT-based work should see as few tuples as possible. Implemented
rewrites:

* **Computed-filter pushdown** — computed predicates sink below crowd
  filters, sorts, and into the matching side of joins (decided by which
  alias bindings the predicate references).
* **Crowd-filter pushdown below joins** — "the system generates HITs for
  all non-join WHERE clause expressions first, and then ... feeds them into
  join operators": a crowd predicate confined to one join side runs before
  the join so the cross product shrinks.
* **Filter ordering** — computed filters run before crowd filters at the
  same level; under the *static* rewriter crowd conjuncts keep their query
  order relative to each other (the paper's Qurk has no selectivity
  estimation).

The cost-based adaptive layer (``REPRO_ADAPT``, on by default) goes
further: when an :class:`~repro.core.adaptive.AdaptiveState` is supplied,
adjacent crowd conjuncts are fused into one
:class:`~repro.core.plan.AdaptiveFilterNode` whose executor orders them by
*observed* selectivity — a pilot pass estimates each conjunct's pass rate,
and the engine re-plans the remaining cascade after every crowd round (see
:mod:`repro.core.adaptive` and :mod:`repro.core.cost_model`). With the
toggle off (or no state passed) plans are bit-identical to the static
rewriter's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.plan import (
    AdaptiveFilterNode,
    ComputedFilterNode,
    CrowdPredicateNode,
    JoinNode,
    PlanNode,
    SortNode,
    plan_aliases,
)
from repro.relational.expressions import Expression

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.adaptive import AdaptiveState


def optimize(plan: PlanNode, adapt: "AdaptiveState | None" = None) -> PlanNode:
    """Apply rewrites until a fixpoint, then (optionally) the adaptive pass.

    The fixpoint bound is derived from the plan's node count, not a
    constant: one bottom-up pass sinks a predicate through at most one
    join, so a left-deep stack of k joins needs k passes — the old
    hard-coded 64 silently stopped early on deeper plans
    (``tests/test_planner_optimizer.py`` pins the regression). A full
    cascade through filter/sort swaps resolves within a single pass, so
    node count (≥ the join depth) passes always suffice.
    """
    node_count = sum(1 for _ in plan.walk())
    for _ in range(max(1, node_count)):
        rewritten, changed = _push_down_once(plan)
        plan = rewritten
        if not changed:
            break
    if adapt is not None and adapt.enabled:
        plan = _fuse_crowd_chains(plan, adapt)
    return plan


def _fuse_crowd_chains(node: PlanNode, adapt: "AdaptiveState") -> PlanNode:
    """Fuse runs of ≥2 adjacent crowd predicates into adaptive filters.

    Single crowd predicates are left untouched — there is nothing to
    reorder, and leaving them alone keeps every single-conjunct workload
    (including the pinned golden trace) bit-identical with the adaptive
    optimizer enabled.
    """
    chain: list[CrowdPredicateNode] = []
    cursor: PlanNode = node
    while cursor.kind == CrowdPredicateNode.kind:
        chain.append(cursor)
        cursor = cursor.inputs[0]
    below = _rewrite_inputs(cursor, adapt)
    if len(chain) >= 2:
        adapt.note_fusion(len(chain))
        # ``chain`` was collected top-down; members are kept in execution
        # (query) order, i.e. deepest conjunct first.
        return AdaptiveFilterNode(members=tuple(reversed(chain)), inputs=(below,))
    if chain:
        chain[0].inputs = (below,)
        return chain[0]
    return below


def _rewrite_inputs(node: PlanNode, adapt: "AdaptiveState") -> PlanNode:
    node.inputs = tuple(
        _fuse_crowd_chains(child, adapt) for child in node.inputs
    )
    return node


def _references_only(predicate: Expression, aliases: set[str]) -> bool:
    """Whether every column the predicate touches belongs to ``aliases``.

    A bare (unqualified) reference is a whole-row alias binding like
    ``isFemale(c)``; it is confined iff the alias itself is in scope.
    """
    refs = predicate.references()
    if not refs:
        return False
    for ref in refs:
        qualifier = ref.split(".", 1)[0] if "." in ref else ref
        if qualifier not in aliases:
            return False
    return True


def _sink_into_join(
    filter_node: PlanNode, predicate: Expression, join: JoinNode
) -> tuple[PlanNode, bool]:
    """Try to move a filter below the matching side of a join."""
    left, right = join.inputs
    wrapper = type(filter_node)
    if _references_only(predicate, plan_aliases(left)):
        join.inputs = (wrapper(predicate=predicate, inputs=(left,)), right)
        return join, True
    if _references_only(predicate, plan_aliases(right)):
        join.inputs = (left, wrapper(predicate=predicate, inputs=(right,)))
        return join, True
    return filter_node, False


def _push_down_once(node: PlanNode) -> tuple[PlanNode, bool]:
    """One bottom-up pass; returns (new node, whether anything changed)."""
    new_inputs = []
    changed = False
    for child in node.inputs:
        new_child, child_changed = _push_down_once(child)
        new_inputs.append(new_child)
        changed |= child_changed
    node.inputs = tuple(new_inputs)

    if node.kind == ComputedFilterNode.kind:
        child = node.inputs[0]
        assert node.predicate is not None

        # Sink below crowd filters and sorts: the crowd then sees fewer
        # tuples (or the same tuples later, which is free).
        if child.kind in (CrowdPredicateNode.kind, SortNode.kind):
            node.inputs = child.inputs
            child.inputs = (node,)
            return child, True

        # Sink into the side of a join the predicate refers to.
        if child.kind == JoinNode.kind:
            sunk, did = _sink_into_join(node, node.predicate, child)
            if did:
                return sunk, True

    if node.kind == CrowdPredicateNode.kind:
        child = node.inputs[0]
        assert node.predicate is not None
        if child.kind == JoinNode.kind:
            sunk, did = _sink_into_join(node, node.predicate, child)
            if did:
                return sunk, True

    return node, changed
