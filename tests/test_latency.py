"""Tests for the latency model."""

import math

import pytest

from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.crowd.latency import LatencyConfig, LatencyModel, TimeOfDay
from repro.errors import MarketplaceError
from repro.hits.hit import HIT, FilterPayload, FilterQuestion
from repro.util.rng import RandomSource


def test_time_of_day_factors():
    assert TimeOfDay.MORNING.rate_factor > TimeOfDay.EVENING.rate_factor


def test_pickup_rate_grows_with_remaining_work():
    model = LatencyModel()
    small = model.pickup_rate(remaining=5, total=1000, time_of_day=TimeOfDay.MORNING)
    large = model.pickup_rate(remaining=900, total=1000, time_of_day=TimeOfDay.MORNING)
    assert large > small


def test_straggler_regime_slows_rate():
    model = LatencyModel()
    # 40/1000 remaining is under the 5% straggler threshold.
    straggler = model.pickup_rate(40, 1000, TimeOfDay.MORNING)
    normal = model.pickup_rate(60, 1000, TimeOfDay.MORNING)
    assert straggler < normal * 0.5


def test_evening_slower_than_morning():
    model = LatencyModel()
    morning = model.pickup_rate(100, 100, TimeOfDay.MORNING)
    evening = model.pickup_rate(100, 100, TimeOfDay.EVENING)
    assert evening < morning


def test_work_seconds_scale_with_effort():
    """Assignment work time (submit minus accept) grows with HIT effort."""
    truth = GroundTruth()
    truth.add_filter_task("flt", {f"item{i}": True for i in range(10)})

    def mean_work(effort: float) -> float:
        latency = LatencyModel(LatencyConfig(work_time_sigma=0.01))
        market = SimulatedMarketplace(truth, seed=2, latency=latency)
        hits = []
        for i in range(10):
            hit = HIT(
                hit_id=f"h{i}",
                payloads=(FilterPayload("flt", (FilterQuestion(f"item{i}"),)),),
                assignments_requested=5,
            )
            hit.effort_seconds = effort
            hits.append(hit)
        done = market.post_hit_group(hits, "g")
        assert done
        return sum(a.submit_time - a.accept_time for a in done) / len(done)

    assert mean_work(30.0) > mean_work(3.0) * 3


def test_gap_sampling_positive():
    """The dispatch loop's pickup-rate table matches pickup_rate entry for
    entry, and exponential gaps drawn at those rates are positive."""
    model = LatencyModel()
    rng = RandomSource(3)
    table = model.pickup_rate_table(100, TimeOfDay.MORNING, 1.0)
    assert len(table) == 101
    for remaining in range(1, 101):
        rate = table[remaining]
        assert rate == model.pickup_rate(remaining, 100, TimeOfDay.MORNING)
        assert rng.exponential(rate) > 0


def test_trial_rate_factor_varies():
    model = LatencyModel()
    factors = {round(model.trial_rate_factor(RandomSource(s)), 6) for s in range(5)}
    assert len(factors) > 1
    assert all(f > 0 for f in factors)


def test_deadline_seconds():
    model = LatencyModel(LatencyConfig(deadline_hours=2.0))
    assert model.deadline_seconds == 7200.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("base_pickup_rate", 0),
        ("base_pickup_rate", -1),
        ("base_pickup_rate", math.inf),
        ("base_pickup_rate", True),
        ("base_pickup_rate", "fast"),
        ("attraction_log_scale", -0.1),
        ("straggler_fraction", 1.0),
        ("straggler_fraction", -0.01),
        ("straggler_slowdown", 0.0),
        ("work_time_sigma", math.nan),
        ("work_overhead_seconds", -2.0),
        ("deadline_hours", 0),
        ("deadline_hours", None),
        ("max_consecutive_refusals", 0),
        ("max_consecutive_refusals", 2.5),
        ("max_consecutive_refusals", True),
        ("trial_jitter", -math.inf),
    ],
)
def test_bad_latency_config_rejected_at_construction(field, value):
    """Each of these used to construct silently: ``base_pickup_rate=0``
    then raised ``ZeroDivisionError`` at the first post, ``-1`` ran a whole
    query, and ``work_time_sigma=nan`` reported 0.0 s of virtual latency."""
    with pytest.raises(MarketplaceError, match=field):
        LatencyConfig(**{field: value})


def test_latency_config_rejection_precedes_the_marketplace():
    with pytest.raises(MarketplaceError, match="base_pickup_rate"):
        SimulatedMarketplace(
            GroundTruth(), latency=LatencyModel(LatencyConfig(base_pickup_rate=0))
        )


def test_latency_config_boundaries_accepted():
    for scale in (1, 4, 64):
        assert LatencyConfig(deadline_hours=8.0 * scale).deadline_hours == 8.0 * scale
    config = LatencyConfig(
        attraction_log_scale=0,
        straggler_fraction=0,
        work_time_sigma=0.0,
        work_overhead_seconds=0,
        max_consecutive_refusals=1,
        trial_jitter=0.0,
    )
    assert config.max_consecutive_refusals == 1
