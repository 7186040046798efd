"""Whole-plan budget allocation (§6, "Whole Plan Budget Allocation").

"Another important problem is how to assign a fixed amount of money to an
entire query plan. Additionally, when there is too much data to process
given a budget, we would like Qurk to be able to decide which data items to
process in more detail."

The allocator takes per-operator work estimates (how many HIT-units each
operator would post at full fidelity) and a dollar budget, then:

1. funds every operator at the minimum viable replication (1 assignment);
2. spends the remainder raising replication toward the requested level,
   cheapest-impact first (operators with fewer units are topped up first —
   raising their confidence costs least);
3. if even minimum replication is unaffordable, scales down the *data
   fraction* processed, trimming from the most expensive operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BudgetExceededError
from repro.hits.pricing import PricingModel

TRIM_STEP_PERCENT = 5
"""Data-fraction trimming step, in percent (one trim = 5% of the data)."""

TRIM_FLOOR_PERCENT = 10
"""Smallest data fraction the allocator will trim to, in percent."""


@dataclass(frozen=True)
class OperatorEstimate:
    """Work forecast for one operator."""

    name: str
    units: int
    """Atomic questions the operator must ask (pairs, items, groups)."""

    requested_assignments: int = 5
    """Replication the configuration asked for."""


def effective_unit_count(units: int, data_fraction: float) -> int:
    """Units actually processed at a data fraction: the **floor** rule.

    This is the single rounding rule for fractional data processing —
    costing and data trimming must both use it. The previous
    ``round(units * fraction)`` used banker's rounding, so at ``.5``
    products the dollars charged could disagree by one unit-price with the
    allocator's own trimming arithmetic (``round(8.5) == 8`` but
    ``round(3.5) == 4``). Floor never bills a unit the fraction does not
    cover; the epsilon absorbs binary float error so exact products like
    ``20 * 0.85`` do not floor to 16.
    """
    return int(units * data_fraction + 1e-9)


@dataclass
class Allocation:
    """Funding decision for one operator."""

    name: str
    units: int
    assignments: int
    data_fraction: float = 1.0

    @property
    def effective_units(self) -> int:
        """Units funded after data trimming (:func:`effective_unit_count`)."""
        return effective_unit_count(self.units, self.data_fraction)

    def cost(self, pricing: PricingModel) -> float:
        """Dollars this allocation will spend."""
        return pricing.cost(self.effective_units * self.assignments)


@dataclass
class BudgetPlan:
    """The full allocation with its total."""

    allocations: list[Allocation] = field(default_factory=list)
    pricing: PricingModel = field(default_factory=PricingModel)

    @property
    def total_cost(self) -> float:
        """Dollars the plan will spend."""
        return sum(allocation.cost(self.pricing) for allocation in self.allocations)

    def for_operator(self, name: str) -> Allocation:
        """Look up one operator's allocation."""
        for allocation in self.allocations:
            if allocation.name == name:
                return allocation
        raise KeyError(name)


def allocate_budget(
    estimates: list[OperatorEstimate],
    budget: float,
    pricing: PricingModel | None = None,
) -> BudgetPlan:
    """Allocate a dollar budget across operators.

    Raises :class:`BudgetExceededError` when even one assignment per unit on
    a small data fraction (10%) cannot fit.
    """
    pricing = pricing or PricingModel()
    if not estimates:
        return BudgetPlan(pricing=pricing)
    plan = BudgetPlan(
        allocations=[
            Allocation(name=e.name, units=e.units, assignments=1) for e in estimates
        ],
        pricing=pricing,
    )

    if plan.total_cost > budget:
        # Minimum replication is unaffordable: trim the data fraction,
        # largest operator first, down to a 10% floor. Trimming counts
        # *integer steps* and derives each fraction from its step count:
        # repeatedly subtracting 0.05 in binary floating point accumulates
        # error (20 × 0.05 ≠ 1.0 exactly), so the old ``fraction -= 0.05``
        # loop's floor check fired a step early or late depending on the
        # drift's sign. Fractions are now exact multiples of 0.05 and the
        # floor comparison is integer arithmetic; effective_unit_count
        # stays the single rounding rule for the resulting unit counts.
        steps = [0 for _ in estimates]
        max_steps = (100 - TRIM_FLOOR_PERCENT) // TRIM_STEP_PERCENT
        order = sorted(
            range(len(estimates)), key=lambda i: -estimates[i].units
        )
        while plan.total_cost > budget:
            trimmed = False
            for index in order:
                if steps[index] < max_steps:
                    steps[index] += 1
                    plan.allocations[index].data_fraction = (
                        100 - TRIM_STEP_PERCENT * steps[index]
                    ) / 100.0
                    trimmed = True
                    if plan.total_cost <= budget:
                        break
            if not trimmed:
                raise BudgetExceededError(
                    f"budget ${budget:.2f} cannot fund even 1 assignment over "
                    f"{TRIM_FLOOR_PERCENT}% of the data "
                    f"(minimum ${plan.total_cost:.2f})"
                )
        return plan

    # Spend the remainder on replication, cheapest top-ups first.
    improved = True
    while improved:
        improved = False
        candidates = sorted(
            (
                (estimate.units, index)
                for index, estimate in enumerate(estimates)
                if plan.allocations[index].assignments
                < estimate.requested_assignments
            ),
        )
        for units, index in candidates:
            extra = pricing.cost(units)
            if plan.total_cost + extra <= budget + 1e-9:
                plan.allocations[index].assignments += 1
                improved = True
                break
    return plan


@dataclass(frozen=True)
class PreflightReport:
    """Whole-plan budget forecast before the first HIT is posted.

    Produced by :func:`plan_preflight` from the adaptive cost model's
    per-operator estimates (:func:`repro.core.cost_model.operator_estimates`).
    ``projected_cost`` is the full-replication forecast. It cannot see the
    task cache, whose contents are only knowable per batch, at posting
    time; the cache-aware gate is the per-round pre-flight in
    :meth:`TaskManager.projected_new_assignments`, which is why the
    whole-plan abort is opt-in (``ExecutionConfig.budget_preflight``).
    ``fits_trimmed`` reports whether *any* allocation (down to 1
    assignment over the trimming floor) fits; when it is False the query
    cannot complete under the budget no matter how execution adapts.
    """

    budget: float
    projected_cost: float
    fits_trimmed: bool = True

    @property
    def fits(self) -> bool:
        """Whether the full-replication forecast fits the budget."""
        return self.projected_cost <= self.budget + 1e-9

    def as_signals(self) -> dict[str, float]:
        """EXPLAIN-friendly rendering of the forecast."""
        return {
            "budget": self.budget,
            "projected_cost": round(self.projected_cost, 4),
            "fits": 1.0 if self.fits else 0.0,
        }


def plan_preflight(
    estimates: list[OperatorEstimate],
    budget: float,
    pricing: PricingModel | None = None,
) -> PreflightReport:
    """Forecast a plan's spend against a budget without posting anything.

    Unlike :func:`allocate_budget` this never raises: it reports. The
    engine runs it when the adaptive optimizer is active and a
    ``max_budget`` is set, surfacing the forecast in EXPLAIN and — with
    ``ExecutionConfig.budget_preflight`` — aborting hopeless queries
    before the first HIT group is posted instead of midway through.
    """
    pricing = pricing or PricingModel()
    projected = sum(
        pricing.cost(e.units * e.requested_assignments) for e in estimates
    )
    try:
        allocate_budget(estimates, budget, pricing)
        fits_trimmed = True
    except BudgetExceededError:
        fits_trimmed = False
    return PreflightReport(
        budget=budget,
        projected_cost=projected,
        fits_trimmed=fits_trimmed,
    )
