"""Tests for the budget allocator and the adaptive batch tuner (§6)."""

import pytest

from repro.core.batch_tuner import BatchTuner, ProbeResult
from repro.core.budget import OperatorEstimate, allocate_budget, plan_preflight
from repro.errors import BatchTuningError, BudgetExceededError
from repro.hits.pricing import PricingModel


def estimates():
    return [
        OperatorEstimate("filter", units=100, requested_assignments=5),
        OperatorEstimate("join", units=400, requested_assignments=5),
    ]


def test_full_funding_when_budget_ample():
    # Full cost = 500 units × 5 × $0.015 = $37.50.
    plan = allocate_budget(estimates(), budget=50.0)
    assert plan.for_operator("filter").assignments == 5
    assert plan.for_operator("join").assignments == 5
    assert plan.total_cost == pytest.approx(37.5)


def test_partial_funding_reduces_replication():
    plan = allocate_budget(estimates(), budget=20.0)
    assert plan.total_cost <= 20.0
    # Minimum one assignment everywhere.
    assert all(a.assignments >= 1 for a in plan.allocations)
    # Cheaper operator gets topped up first.
    assert plan.for_operator("filter").assignments >= plan.for_operator("join").assignments


def test_data_trimming_when_minimum_unaffordable():
    # Minimum (1 assignment) costs $7.50; give less.
    plan = allocate_budget(estimates(), budget=5.0)
    assert plan.total_cost <= 5.0
    assert any(a.data_fraction < 1.0 for a in plan.allocations)
    # The bigger operator is trimmed first.
    assert plan.for_operator("join").data_fraction <= plan.for_operator("filter").data_fraction


def test_hopeless_budget_raises():
    with pytest.raises(BudgetExceededError):
        allocate_budget(estimates(), budget=0.10)


def test_empty_estimates():
    assert allocate_budget([], budget=1.0).total_cost == 0.0


def test_allocation_cost_accounts_fraction():
    from repro.core.budget import Allocation

    allocation = Allocation("x", units=100, assignments=2, data_fraction=0.5)
    assert allocation.cost(PricingModel()) == pytest.approx(50 * 2 * 0.015)


def test_effective_units_floor_rule():
    """One consistent rounding rule: floor, never banker's rounding.

    ``round`` rounds half to even, so ``round(3.5) == 4`` but
    ``round(2.5) == 2`` — the dollars charged could disagree by one
    unit-price with the trimming loop's own arithmetic at .5 products.
    """
    from repro.core.budget import Allocation, effective_unit_count

    assert effective_unit_count(7, 0.5) == 3  # round() would bill 4
    assert effective_unit_count(5, 0.5) == 2
    assert effective_unit_count(10, 0.25) == 2
    assert effective_unit_count(10, 0.35) == 3  # round() would bill 4
    # Exact products survive binary-float error (20 * 0.85 < 17.0 in FP).
    assert effective_unit_count(20, 0.85) == 17
    assert effective_unit_count(100, 1.0) == 100
    assert effective_unit_count(0, 0.5) == 0

    allocation = Allocation("x", units=7, assignments=1, data_fraction=0.5)
    assert allocation.effective_units == 3
    assert allocation.cost(PricingModel()) == pytest.approx(3 * 0.015)


def test_trimmed_plan_cost_consistent_with_floor_rule():
    """The trimming loop and the charged dollars use the same arithmetic:
    every trimmed plan's total is exactly the floor-rule sum, and within
    budget."""
    from repro.core.budget import effective_unit_count

    for budget in (5.0, 4.1, 3.3, 2.6):
        plan = allocate_budget(estimates(), budget=budget)
        recomputed = sum(
            plan.pricing.cost(
                effective_unit_count(a.units, a.data_fraction) * a.assignments
            )
            for a in plan.allocations
        )
        assert plan.total_cost == pytest.approx(recomputed, abs=1e-12)
        assert plan.total_cost <= budget


def test_trimming_fractions_are_exact_multiples():
    """Float-drift regression: the trimming loop now counts integer steps,
    so every data fraction is an *exact* multiple of 0.05 and the 10%
    floor is reached exactly — repeated ``fraction -= 0.05`` accumulated
    binary error and fired the floor check a step early or late."""
    # Tiny budget: both operators must trim all the way to the floor
    # before the allocator gives up — or stop exactly at budget.
    plan = allocate_budget(estimates(), budget=0.80)
    fractions = sorted(a.data_fraction for a in plan.allocations)
    for fraction in fractions:
        steps = fraction * 20  # exact when fraction is a multiple of 0.05
        assert steps == int(steps), f"drifted fraction {fraction!r}"
        assert fraction >= 0.1
    # The floor itself is representable and reached exactly, not 0.0999…
    assert fractions[0] == 0.1


def test_trimming_floor_boundary_exact():
    """A budget that only fits with every operator exactly at the 10%
    floor must allocate (old drift made the floor check refuse the final
    step); one cent less must raise."""
    ests = [OperatorEstimate("only", units=200, requested_assignments=1)]
    floor_cost = PricingModel().cost(20)  # 200 × 0.1 = 20 units × 1 asg
    plan = allocate_budget(ests, budget=floor_cost)
    assert plan.allocations[0].data_fraction == 0.1
    assert plan.total_cost <= floor_cost
    with pytest.raises(BudgetExceededError):
        allocate_budget(ests, budget=floor_cost - 0.01)


def test_plan_preflight_reports_without_raising():
    report = plan_preflight(estimates(), budget=50.0)
    assert report.fits and report.fits_trimmed
    assert report.projected_cost == pytest.approx(37.5)
    hopeless = plan_preflight(estimates(), budget=0.10)
    assert not hopeless.fits and not hopeless.fits_trimmed
    assert report.as_signals()["fits"] == 1.0


def test_budget_allocator_respects_cap():
    """§6's whole-plan allocation keeps a three-operator plan under $15."""
    plan = allocate_budget(
        [
            OperatorEstimate("feature-pass", units=120, requested_assignments=5),
            OperatorEstimate("join", units=300, requested_assignments=5),
            OperatorEstimate("sort", units=80, requested_assignments=5),
        ],
        budget=15.0,
    )
    assert plan.total_cost <= 15.0
    assert all(a.assignments >= 1 for a in plan.allocations)


def test_unknown_operator_lookup():
    plan = allocate_budget(estimates(), budget=50.0)
    with pytest.raises(KeyError):
        plan.for_operator("nope")


# ---------------------------------------------------------------------------
# Batch tuner
# ---------------------------------------------------------------------------


def refusal_wall_probe(wall: int):
    def probe(batch: int) -> ProbeResult:
        return ProbeResult(
            batch_size=batch,
            completed=batch < wall,
            accuracy=1.0 - 0.01 * batch,
            latency_seconds=60.0 * batch,
        )

    return probe


def test_tuner_finds_largest_acceptable_batch():
    tuner = BatchTuner(min_batch=1, max_batch=32)
    best = tuner.tune(refusal_wall_probe(wall=11))
    assert best == 10
    assert tuner.refusal_wall() >= 11


def test_tuner_respects_accuracy_floor():
    def probe(batch: int) -> ProbeResult:
        return ProbeResult(batch, completed=True, accuracy=1.0 - 0.05 * batch)

    tuner = BatchTuner(min_batch=1, max_batch=32, accuracy_floor=0.8)
    assert tuner.tune(probe) <= 4


def test_tuner_respects_latency_ceiling():
    def probe(batch: int) -> ProbeResult:
        return ProbeResult(batch, completed=True, latency_seconds=batch * 1000.0)

    tuner = BatchTuner(min_batch=1, max_batch=32, latency_ceiling_seconds=5000.0)
    assert tuner.tune(probe) <= 5


def test_tuner_everything_fails_raises():
    """The old behaviour silently returned ``min_batch`` when even the
    minimum probe failed — a lying int callers could not distinguish from
    "the minimum works". The failure now surfaces explicitly, carrying the
    failing probe."""
    tuner = BatchTuner(min_batch=1, max_batch=8)
    with pytest.raises(BatchTuningError) as excinfo:
        tuner.tune(refusal_wall_probe(wall=0))
    assert excinfo.value.probe is not None
    assert excinfo.value.probe.batch_size == 1
    assert not excinfo.value.probe.completed
    # Exactly one probe was spent discovering the failure: min first.
    assert [r.batch_size for r in tuner.history] == [1]


def test_tuner_probes_minimum_first():
    tuner = BatchTuner(min_batch=2, max_batch=16)
    tuner.tune(refusal_wall_probe(wall=9))
    assert tuner.history[0].batch_size == 2


def test_tuner_min_equals_max():
    tuner = BatchTuner(min_batch=3, max_batch=3)
    assert tuner.tune(refusal_wall_probe(wall=10)) == 3
    with pytest.raises(BatchTuningError):
        BatchTuner(min_batch=3, max_batch=3).tune(refusal_wall_probe(wall=2))


def test_tuner_history_recorded():
    tuner = BatchTuner(min_batch=1, max_batch=16)
    tuner.tune(refusal_wall_probe(wall=9))
    assert len(tuner.history) >= 3


def test_tuner_invalid_bounds():
    with pytest.raises(ValueError):
        BatchTuner(min_batch=5, max_batch=2).tune(refusal_wall_probe(3))


def compare_group_probe(truth, task, refs, seed_step):
    """A probe posting one compare group of the first ``group_size`` refs."""
    from repro.crowd import SimulatedMarketplace
    from repro.hits import TaskManager
    from repro.hits.hit import CompareGroup, ComparePayload

    def probe(group_size: int) -> ProbeResult:
        market = SimulatedMarketplace(truth, seed=group_size * seed_step)
        manager = TaskManager(market)
        items = tuple(refs[:group_size])
        if len(items) < 2:
            return ProbeResult(group_size, completed=True)
        payload = ComparePayload(task, (CompareGroup(items),))
        outcome = manager.run_units([[payload]], assignments=3, label="probe", strict=False)
        return ProbeResult(
            group_size,
            completed=not outcome.uncompleted_hit_ids,
            latency_seconds=outcome.elapsed_seconds,
        )

    return probe


def test_tuner_against_simulated_marketplace(simple_rank_truth):
    """End-to-end: the tuner discovers the compare-group refusal wall."""
    refs = [f"img://item/{i}" for i in range(10)]
    probe = compare_group_probe(simple_rank_truth, "sizeRank", refs, seed_step=1)
    tuner = BatchTuner(min_batch=2, max_batch=10, latency_ceiling_seconds=1e9)
    best = tuner.tune(probe)
    assert 2 <= best <= 10


def test_batch_tuner_finds_the_wall():
    """§6's tuner finds the largest compare group below the refusal wall."""
    from repro.crowd import GroundTruth

    truth = GroundTruth()
    refs = [f"i{k}" for k in range(24)]
    truth.add_rank_task(
        "rank", {ref: float(k) for k, ref in enumerate(refs)}, comparison_ambiguity=0.2
    )
    tuner = BatchTuner(min_batch=2, max_batch=24, latency_ceiling_seconds=1e9)
    best = tuner.tune(compare_group_probe(truth, "rank", refs, seed_step=7))
    # The paper saw group size 10 work and 20 refused: the wall is between.
    assert 5 <= best < 20
