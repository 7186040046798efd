"""Worker profiles: the error/effort parameters of one simulated Turker.

Three archetypes reproduce the behaviours the paper measures:

* **reliable** — low error, but still imperfect; errors grow mildly with
  batch size (attention dilution).
* **sloppy** — noticeably error-prone, errors grow quickly with batching
  ("larger, batched schemes are more attractive to workers that quickly and
  inaccurately complete the tasks", §3.3.2).
* **spammer** — ignores content entirely; answers at random or with a fixed
  pattern to finish fast. QualityAdjust exists to identify these.

Every numeric parameter is drawn per-worker from the archetype's range so
the pool is heterogeneous, which matters for the Zipfian work distribution
and the §3.3.3 accuracy-vs-volume regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.rng import RandomSource

SPAM_STYLES = ("random", "always_yes", "always_no", "first_option")


@dataclass(frozen=True)
class WorkerProfile:
    """All behavioural parameters of one worker."""

    worker_id: str
    archetype: str
    filter_error: float
    join_miss: float
    join_false_alarm: float
    compare_noise: float
    rate_noise: float
    rate_bias: float
    feature_carelessness: float
    yes_bias: float
    batch_error_growth: float
    effort_threshold: float
    speed: float
    is_spammer: bool = False
    spam_style: str = "random"

    def batch_factor(self, units: int) -> float:
        """Error multiplier for a HIT carrying ``units`` atomic questions."""
        if units <= 1:
            return 1.0
        return min(3.0, 1.0 + self.batch_error_growth * (units - 1))

    def error_rate(self, base: float, units: int) -> float:
        """A base error probability scaled by batching, capped below 0.95."""
        return min(0.95, base * self.batch_factor(units))

    def acceptance_probability(self, effort_seconds: float) -> float:
        """Probability of accepting a HIT requiring this much honest effort.

        A logistic curve around the worker's personal effort-per-penny
        threshold: HITs far beyond it (compare groups of 20, §4.2.2) are
        virtually always declined. Past about 1,420 s over the threshold
        ``exp`` overflows a double; the probability is then 0.0.
        """
        exponent = (effort_seconds - self.effort_threshold) / 2.0
        try:
            return 1.0 / (1.0 + math.exp(exponent))
        except OverflowError:
            return 0.0


def make_reliable(worker_id: str, rng: RandomSource) -> WorkerProfile:
    """A careful worker."""
    return WorkerProfile(
        worker_id=worker_id,
        archetype="reliable",
        filter_error=rng.uniform(0.02, 0.06),
        join_miss=rng.uniform(0.08, 0.18),
        join_false_alarm=rng.uniform(0.001, 0.008),
        compare_noise=rng.uniform(0.02, 0.06),
        rate_noise=rng.uniform(0.08, 0.16),
        rate_bias=rng.gauss(0.0, 0.35),
        feature_carelessness=rng.uniform(0.0, 0.02),
        yes_bias=rng.gauss(0.0, 0.02),
        batch_error_growth=rng.uniform(0.01, 0.03),
        effort_threshold=rng.gauss(31.0, 5.0),
        speed=rng.uniform(0.8, 1.3),
    )


def make_sloppy(worker_id: str, rng: RandomSource) -> WorkerProfile:
    """A fast, careless (but not adversarial) worker."""
    return WorkerProfile(
        worker_id=worker_id,
        archetype="sloppy",
        filter_error=rng.uniform(0.10, 0.20),
        join_miss=rng.uniform(0.25, 0.45),
        join_false_alarm=rng.uniform(0.01, 0.05),
        compare_noise=rng.uniform(0.10, 0.22),
        rate_noise=rng.uniform(0.20, 0.40),
        rate_bias=rng.gauss(0.0, 0.9),
        feature_carelessness=rng.uniform(0.03, 0.08),
        yes_bias=rng.gauss(0.0, 0.08),
        batch_error_growth=rng.uniform(0.05, 0.10),
        effort_threshold=rng.gauss(38.0, 6.0),
        speed=rng.uniform(0.5, 0.8),
    )


def make_spammer(worker_id: str, rng: RandomSource) -> WorkerProfile:
    """An adversarial worker minimising effort for payment.

    Spammers have the highest batch tolerance — big batches maximise pay per
    click — which is exactly why batched schemes attract them (§3.3.2).
    """
    style = rng.choice(["random", "always_no", "random", "always_yes"])
    return WorkerProfile(
        worker_id=worker_id,
        archetype="spammer",
        filter_error=0.5,
        join_miss=0.5,
        join_false_alarm=0.5,
        compare_noise=10.0,
        rate_noise=10.0,
        rate_bias=0.0,
        feature_carelessness=1.0,
        yes_bias=0.0,
        batch_error_growth=0.0,
        effort_threshold=rng.gauss(37.0, 4.0),
        speed=rng.uniform(0.15, 0.35),
        is_spammer=True,
        spam_style=style,
    )
