"""The estimate-observe-replan loop (cost-based adaptive re-optimization).

The paper's Qurk "orders filters and joins as they appear in the query"
(§2.5) because it has no selectivity estimation; §6 defers cost-aware
planning to future work. This module closes that loop:

* :class:`SelectivityBook` — per-query online selectivity estimates:
  Laplace-smoothed priors before any crowd work, observed pass rates after
  (every completed crowd filter round, unary POSSIBLY prune, and feature
  pass feeds it).
* :class:`AdaptiveState` — one query's adaptive machinery: the book, the
  cost model's pre-execution forecast, the budget pre-flight report, and
  the :class:`ReplanEvent` log EXPLAIN renders.
* :class:`AdaptiveChainRun` — execution of a fused crowd-conjunct chain
  (:class:`~repro.core.plan.AdaptiveFilterNode`): a **pilot** pass runs
  every conjunct over a small row sample to measure real pass rates, then
  the remaining rows **cascade** through the conjuncts in ascending
  observed selectivity, re-planning the order after every crowd round —
  mid-query re-optimization between scheduler steps.

Determinism: the loop is a pure function of the plan, the input rows, and
the book's state; all crowd draws still flow through the task manager in
posting order. Two identical runs replan identically
(``tests/test_adaptive_optimizer.py`` pins an 8-query session). With
``REPRO_ADAPT=0`` none of this machinery is constructed and plans,
posting order, and the golden trace are bit-identical to the static
rewriter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.cost_model import (
    PlanCostEstimate,
    estimate_plan_cost,
    predicate_key,
)
from repro.core.crowd_calls import (
    evaluate_with_crowd,
    predicate_hits,
    run_predicate_calls,
)
from repro.util.toggles import ADAPT

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.budget import PreflightReport
    from repro.core.context import ExecutionConfig, QueryContext
    from repro.core.plan import AdaptiveFilterNode, CrowdPredicateNode
    from repro.relational.rows import Row


@dataclass
class PredicateEstimate:
    """Running pass-rate tally for one predicate/feature key."""

    passed: float = 0.0
    seen: float = 0.0


class SelectivityBook:
    """Online selectivity estimates with Laplace-smoothed priors.

    ``estimate`` blends a prior (default 0.5 — maximum ignorance) with
    every observation so far: ``(passed + prior·weight) / (seen + weight)``.
    An engine shares one book across its (serial) queries, so repeated
    workloads start from learned selectivities; a session gives each query
    its own book, keeping concurrent queries' estimate state isolated and
    their re-planning deterministic regardless of sibling progress.
    """

    def __init__(self, prior: float = 0.5, prior_weight: float = 2.0) -> None:
        self.prior = prior
        self.prior_weight = prior_weight
        self._tallies: dict[str, PredicateEstimate] = {}

    def estimate(self, key: str, prior: float | None = None) -> float:
        """Current smoothed pass-rate estimate for a key."""
        tally = self._tallies.get(key)
        prior = self.prior if prior is None else prior
        if tally is None:
            return prior
        return (tally.passed + prior * self.prior_weight) / (
            tally.seen + self.prior_weight
        )

    def observe(self, key: str, rows_in: float, rows_out: float) -> None:
        """Fold one completed crowd round's pass counts into the estimate."""
        if rows_in <= 0:
            return
        tally = self._tallies.setdefault(key, PredicateEstimate())
        tally.passed += rows_out
        tally.seen += rows_in

    def record_fraction(self, key: str, fraction: float, weight: float = 1.0) -> None:
        """Fold an already-computed pass fraction in at a given weight."""
        self.observe(key, weight, fraction * weight)

    def observed(self, key: str) -> float | None:
        """The raw observed pass rate, or None before any observation."""
        tally = self._tallies.get(key)
        if tally is None or tally.seen <= 0:
            return None
        return tally.passed / tally.seen

    def known_keys(self) -> list[str]:
        """Keys with at least one observation (deterministic order)."""
        return sorted(self._tallies)


@dataclass(frozen=True)
class ReplanEvent:
    """One adaptive decision, for the EXPLAIN re-plan log."""

    round: int
    phase: str
    """``pilot`` (sampling), ``cascade`` (ordered full run), or ``join``
    (grid-orientation choice)."""

    subject: str
    rows_in: int = 0
    rows_out: int = 0
    estimate_before: float = 0.0
    observed: float = 0.0
    predicted_hits: int = 0
    actual_hits: int = 0
    reordered: bool = False

    def render(self) -> str:
        note = " [reordered]" if self.reordered else ""
        return (
            f"round {self.round} ({self.phase}): {self.subject} "
            f"rows {self.rows_in}->{self.rows_out}, "
            f"est={self.estimate_before:.2f} obs={self.observed:.2f}, "
            f"hits {self.predicted_hits}->{self.actual_hits}{note}"
        )


@dataclass
class AdaptiveState:
    """One query's adaptive-optimizer state, carried on the QueryContext."""

    book: SelectivityBook = field(default_factory=SelectivityBook)
    enabled: bool = True
    events: list[ReplanEvent] = field(default_factory=list)
    replans: int = 0
    """Rounds where the adaptive order deviated from the static one."""

    fused_chains: int = 0
    fused_conjuncts: int = 0
    predicted: PlanCostEstimate | None = None
    preflight: "PreflightReport | None" = None

    def note_fusion(self, length: int) -> None:
        self.fused_chains += 1
        self.fused_conjuncts += length

    def note_event(self, event: ReplanEvent) -> None:
        self.events.append(event)
        if event.reordered:
            self.replans += 1

    def next_round(self) -> int:
        return len(self.events) + 1

    def summary(
        self, actual_hits: int | None = None, actual_cost: float | None = None
    ) -> dict[str, object]:
        """The EXPLAIN footer payload (predicted vs. actual, event log)."""
        payload: dict[str, object] = {
            "replans": self.replans,
            "rounds": len(self.events),
            "fused_chains": self.fused_chains,
            "fused_conjuncts": self.fused_conjuncts,
        }
        if self.predicted is not None:
            payload["predicted_hits"] = round(self.predicted.total_hits, 1)
            payload["predicted_cost"] = round(self.predicted.total_dollars, 4)
        if actual_hits is not None:
            payload["actual_hits"] = actual_hits
        if actual_cost is not None:
            payload["actual_cost"] = round(actual_cost, 4)
        if self.preflight is not None:
            payload["preflight"] = self.preflight.as_signals()
        payload["events"] = [event.render() for event in self.events]
        return payload


def build_state(config: "ExecutionConfig", book: SelectivityBook | None = None) -> AdaptiveState | None:
    """An :class:`AdaptiveState` for a query, or None when toggled off."""
    if not ADAPT.resolve(config.adapt):
        return None
    return AdaptiveState(book=book or SelectivityBook())


def forecast(
    state: AdaptiveState,
    plan,
    catalog,
    config: "ExecutionConfig",
    pricing=None,
) -> PlanCostEstimate:
    """Attach the cost model's pre-execution forecast to the state."""
    state.predicted = estimate_plan_cost(
        plan, catalog, config, state.book, pricing=pricing
    )
    return state.predicted


def preflight(
    state: AdaptiveState,
    plan,
    catalog,
    config: "ExecutionConfig",
    pricing=None,
) -> None:
    """Forecast + whole-plan budget pre-flight, shared by engine and session.

    The forecast always lands in the adaptive summary (predicted vs.
    actual HITs in EXPLAIN). With ``max_budget`` set the estimates
    additionally drive :func:`repro.core.budget.plan_preflight`; only
    ``budget_preflight=True`` turns a hopeless forecast into a
    :class:`~repro.errors.BudgetExceededError` before the first HIT group
    is posted — in a session, the error lands on that query's handle like
    any other per-query failure.
    """
    estimate = forecast(state, plan, catalog, config, pricing=pricing)
    if config.max_budget is None:
        return
    from repro.core.budget import plan_preflight
    from repro.core.cost_model import operator_estimates

    state.preflight = plan_preflight(
        operator_estimates(estimate, config),
        config.max_budget,
        pricing,
    )
    if config.budget_preflight and not state.preflight.fits_trimmed:
        from repro.errors import BudgetExceededError

        raise BudgetExceededError(
            f"pre-flight: the cost model projects "
            f"${state.preflight.projected_cost:.2f} of crowd work and "
            f"even a trimmed allocation cannot fit the "
            f"${config.max_budget:.2f} budget"
        )


def pilot_size(rows: int, conjuncts: int, config: "ExecutionConfig") -> int:
    """How many rows the pilot pass samples (0 = no pilot).

    A pilot only pays for itself when there are at least two conjuncts to
    order and enough rows that the sampled fraction is small relative to
    the cascade; tiny inputs skip straight to the observed-order cascade.
    """
    if conjuncts < 2 or rows < config.adaptive_min_pilot * 2:
        return 0
    pilot = max(
        config.adaptive_min_pilot,
        int(rows * config.adaptive_pilot_fraction),
    )
    return min(pilot, rows // 2)


class AdaptiveChainRun:
    """Drives one fused conjunct chain through pilot + adaptive cascade.

    Built by the scheduler; each :meth:`step` performs exactly one crowd
    posting round, so the pipelined scheduler can yield between rounds
    (its re-plan points) and a session can round-robin other queries in
    between. :meth:`finish` returns the surviving rows in input order —
    identical to the static cascade's row set, whatever order was chosen.
    """

    def __init__(
        self,
        node: "AdaptiveFilterNode",
        rows: "Sequence[Row]",
        ctx: "QueryContext",
    ) -> None:
        self.node = node
        self.ctx = ctx
        self.rows = list(rows)
        self.state = ctx.adapt if ctx.adapt is not None else AdaptiveState()
        self.book = self.state.book
        self.members: list["CrowdPredicateNode"] = list(node.members)

        stats = ctx.stats_for(node)
        stats.rows_in += len(self.rows)

        n = len(self.rows)
        pilot = pilot_size(n, len(self.members), ctx.config)
        pilot_indices: list[int] = []
        if pilot:
            # Seeded uniform sample (engine-side RNG, like covering groups
            # and rating anchors): deterministic for a config seed, and —
            # unlike a prefix or an evenly spaced stride — immune to both
            # sorted inputs and periodic patterns aliasing the estimates.
            from repro.util.rng import RandomSource

            rng = RandomSource(ctx.config.seed).child("adaptive-pilot", n)
            pilot_indices = sorted(rng.sample(range(n), pilot))
        self.pilot_indices = pilot_indices
        self.pilot_member_cursor = 0
        # Per-row conjunction result over the pilot sample.
        self.pilot_alive: dict[int, bool] = {i: True for i in pilot_indices}
        pilot_set = set(pilot_indices)
        self.cascade_alive: list[int] = [
            i for i in range(n) if i not in pilot_set
        ]
        self.remaining: list[tuple[int, "CrowdPredicateNode"]] = list(
            enumerate(self.members)
        )
        self._done = n == 0 or not self.members

    @property
    def done(self) -> bool:
        return self._done

    def step(self) -> bool:
        """Run one crowd round; returns False once the chain is finished."""
        if self._done:
            return False
        if self.pilot_member_cursor < len(self.members) and self.pilot_indices:
            self._pilot_round()
        elif self.remaining:
            self._cascade_round()
        self._done = (
            self.pilot_member_cursor >= len(self.members) or not self.pilot_indices
        ) and not self.remaining
        return not self._done

    def finish(self) -> list["Row"]:
        """Surviving rows, in original input order."""
        while self.step():
            pass
        kept_indices = sorted(
            [i for i, alive in self.pilot_alive.items() if alive]
            + self.cascade_alive
        )
        kept = [self.rows[i] for i in kept_indices]
        stats = self.ctx.stats_for(self.node)
        stats.rows_out += len(kept)
        return kept

    # -- rounds ---------------------------------------------------------

    def _pilot_round(self) -> None:
        """Sample one conjunct (in query order) over the pilot rows."""
        member = self.members[self.pilot_member_cursor]
        self.pilot_member_cursor += 1
        subset = list(self.pilot_indices)
        passed = self._run_member(member, subset, phase="pilot")
        for index in subset:
            if index not in passed:
                self.pilot_alive[index] = False

    def _cascade_round(self) -> None:
        """Re-plan: run the most selective remaining conjunct next."""
        choice = min(
            range(len(self.remaining)),
            key=lambda i: (
                self.book.estimate(
                    predicate_key(self.remaining[i][1].predicate)
                ),
                self.remaining[i][0],
            ),
        )
        original_index, member = self.remaining.pop(choice)
        reordered = any(
            other_index < original_index for other_index, _ in self.remaining
        )
        if not self.cascade_alive:
            # Nothing left to filter; the conjunct's pilot observations
            # stand, no HITs posted.
            return
        passed = self._run_member(
            member, self.cascade_alive, phase="cascade", reordered=reordered
        )
        self.cascade_alive = [i for i in self.cascade_alive if i in passed]

    def _run_member(
        self,
        member: "CrowdPredicateNode",
        indices: Sequence[int],
        phase: str,
        reordered: bool = False,
    ) -> set[int]:
        """Post one conjunct over a row subset; observe and log."""
        assert member.predicate is not None
        key = predicate_key(member.predicate)
        estimate_before = self.book.estimate(key)
        subset = [self.rows[i] for i in indices]
        ctx = self.ctx
        predicted_hits = predicate_hits(
            member.crowd_calls(), len(subset), ctx.catalog, ctx.config
        )

        stats = ctx.stats_for(member)
        stats.rows_in += len(subset)
        bindings = run_predicate_calls(member.predicate, subset, ctx, "where")
        stats.add(bindings.outcome)
        stats.signals.update(bindings.signals)

        passed: set[int] = set()
        for index, row in zip(indices, subset):
            if evaluate_with_crowd(member.predicate, row, bindings, ctx):
                passed.add(index)
        stats.rows_out += len(passed)

        self.book.observe(key, len(subset), len(passed))
        stats.signals["estimated_selectivity"] = estimate_before
        observed = self.book.observed(key)
        if observed is not None:
            stats.signals["observed_selectivity"] = observed

        ctx.stats_for(self.node).add(bindings.outcome)

        self.state.note_event(
            ReplanEvent(
                round=self.state.next_round(),
                phase=phase,
                subject=str(member.predicate),
                rows_in=len(subset),
                rows_out=len(passed),
                estimate_before=estimate_before,
                observed=observed if observed is not None else 0.0,
                predicted_hits=predicted_hits,
                actual_hits=bindings.outcome.hit_count,
                reordered=reordered,
            )
        )
        return passed
