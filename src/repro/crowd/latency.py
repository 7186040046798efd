"""Latency model: when assignments get picked up and submitted.

The model reproduces the qualitative latency phenomena of §3.3.2/Figure 4:

* **HIT-group attraction** — Turkers gravitate to groups with many HITs
  available, so the instantaneous pick-up rate grows with the amount of
  work remaining in the group.
* **Straggler tail** — "in several cases, the last 50% of wait time is
  spent completing the last 5% of tasks": once little work remains the
  group falls off the front page and pick-up slows dramatically.
* **Time of day** — the paper ran morning and evening trials and saw
  variance between them; each :class:`TimeOfDay` applies a rate factor.
* **Refusals** — workers decline HITs whose effort exceeds their personal
  threshold; declined considerations consume wall-clock time. Batches big
  enough that essentially nobody accepts stall to the deadline (the
  group-size-20 comparison of §4.2.2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import MarketplaceError
from repro.util.fields import Rule, check_fields, integer, real
from repro.util.rng import RandomSource


class TimeOfDay(enum.Enum):
    """Posting windows used by the paper's paired trials."""

    MORNING = "morning"
    EVENING = "evening"

    @property
    def rate_factor(self) -> float:
        """Relative worker-arrival rate for the window."""
        return {TimeOfDay.MORNING: 1.0, TimeOfDay.EVENING: 0.62}[self]


@dataclass(frozen=True)
class LatencyConfig:
    """Tunable constants of the latency model."""

    base_pickup_rate: float = 1.0 / 6.0
    """Willing-worker arrivals per second for a very attractive group."""

    attraction_log_scale: float = 0.30
    """Group attraction: rate multiplier = 1 + scale × log2(1 + remaining)."""

    straggler_fraction: float = 0.05
    """Fraction of remaining work below which the group goes cold."""

    straggler_slowdown: float = 0.12
    """Rate multiplier once in the straggler regime."""

    work_time_sigma: float = 0.30
    """Log-normal σ of actual work time around honest effort × speed."""

    work_overhead_seconds: float = 2.0
    """Fixed page-load/submit overhead per assignment."""

    deadline_hours: float = 8.0
    """Give up on unassigned work after this long."""

    max_consecutive_refusals: int = 200
    """Abort the group early when this many considerations in a row decline
    (nobody is ever going to take these HITs at this price)."""

    trial_jitter: float = 0.25
    """Per-posting lognormal jitter on the base rate — MTurk is 'dynamic'
    (§3.3.2); two identical trials complete in different times."""

    rules: ClassVar[dict[str, Rule]] = {
        "base_pickup_rate": real(0, low_open=True),
        "attraction_log_scale": real(0),
        "straggler_fraction": real(0, 1, high_open=True),
        "straggler_slowdown": real(0, low_open=True),
        "work_time_sigma": real(0),
        "work_overhead_seconds": real(0),
        "deadline_hours": real(0, low_open=True),
        "max_consecutive_refusals": integer(1),
        "trial_jitter": real(0),
    }

    def __post_init__(self) -> None:
        check_fields(self, self.rules, MarketplaceError)


class LatencyModel:
    """Pick-up rates and latency constants for the marketplace.

    The marketplace's dispatch loop draws the gaps between worker
    considerations from :meth:`pickup_rate_table` and each assignment's work
    time from ``work_overhead_seconds`` plus a log-normal
    (σ = ``work_time_sigma``) around the worker's effort × speed.
    """

    def __init__(self, config: LatencyConfig | None = None) -> None:
        self.config = config or LatencyConfig()
        # pickup_rate_table memoization. Sessions repost identically shaped
        # groups all run long, so the log2 sweep is cached per (total,
        # time_of_day); the per-posting trial factor is a pure elementwise
        # scale applied on top. The fully scaled table is additionally kept
        # in a single-slot memo keyed (total, time_of_day, trial_factor) —
        # trial factors are drawn fresh per posting, so a dict keyed on them
        # would grow one O(total) entry per group for the life of the run.
        self._base_rate_tables: dict[tuple[int, TimeOfDay], tuple[float, ...]] = {}
        self._last_rate_table: tuple[tuple[int, TimeOfDay, float], list[float]] | None = None

    @property
    def deadline_seconds(self) -> float:
        """The posting deadline in seconds."""
        return self.config.deadline_hours * 3600.0

    def trial_rate_factor(self, rng: RandomSource) -> float:
        """Random per-posting throughput factor (marketplace weather)."""
        return rng.lognormal(0.0, self.config.trial_jitter)

    def pickup_rate(
        self,
        remaining: int,
        total: int,
        time_of_day: TimeOfDay,
        trial_factor: float = 1.0,
    ) -> float:
        """Instantaneous willing-worker arrival rate for a group state."""
        if remaining <= 0 or total <= 0:
            return self.config.base_pickup_rate
        attraction = 1.0 + self.config.attraction_log_scale * math.log2(1 + remaining)
        rate = self.config.base_pickup_rate * attraction * time_of_day.rate_factor
        if remaining / total <= self.config.straggler_fraction:
            rate *= self.config.straggler_slowdown
        return rate * trial_factor

    def pickup_rate_table(
        self, total: int, time_of_day: TimeOfDay, trial_factor: float
    ) -> list[float]:
        """Precomputed ``pickup_rate`` for every ``remaining`` in [0, total].

        One posting considers thousands of times but ``remaining`` only takes
        ``total + 1`` values, so the marketplace hot loop indexes this table
        instead of recomputing the log/branch per consideration. Every entry
        is evaluated with the exact expression (and operation order) of
        :meth:`pickup_rate`, so sampled gaps are bit-identical.

        Memoized: the trial-factor-free sweep is cached per ``(total,
        time_of_day)`` and the scaled result per ``(total, time_of_day,
        trial_factor)`` (single slot; see ``__init__``). Entry 0 ignores the
        trial factor entirely (``pickup_rate`` returns the unscaled base
        rate for an empty group), so only entries 1..total are rescaled.
        Callers must not mutate the returned list.
        """
        key = (total, time_of_day, trial_factor)
        last = self._last_rate_table
        if last is not None and last[0] == key:
            return last[1]
        base_rates = self._base_rate_table(total, time_of_day)
        table = [self.pickup_rate(0, total, time_of_day, trial_factor)]
        table.extend(rate * trial_factor for rate in base_rates)
        self._last_rate_table = (key, table)
        return table

    def _base_rate_table(
        self, total: int, time_of_day: TimeOfDay
    ) -> tuple[float, ...]:
        """Trial-factor-free pickup rates for ``remaining`` in [1, total]."""
        key = (total, time_of_day)
        cached = self._base_rate_tables.get(key)
        if cached is not None:
            return cached
        config = self.config
        base = config.base_pickup_rate
        scale = config.attraction_log_scale
        straggler_fraction = config.straggler_fraction
        slowdown = config.straggler_slowdown
        tod_factor = time_of_day.rate_factor
        log2 = math.log2
        rates = []
        for remaining in range(1, total + 1):
            rate = base * (1.0 + scale * log2(1 + remaining)) * tod_factor
            if remaining / total <= straggler_fraction:
                rate *= slowdown
            rates.append(rate)
        if len(self._base_rate_tables) >= 64:
            # Workloads cycle through a handful of group shapes; an
            # unbounded map would pin one O(total) sweep per distinct shape.
            self._base_rate_tables.clear()
        table = self._base_rate_tables[key] = tuple(rates)
        return table
