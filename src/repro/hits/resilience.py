"""Engine-side resilience: retry policy, degradation accounting, breaker.

The marketplace half of the robustness layer (:mod:`repro.crowd.faults`)
injects faults; this module gives the Task Manager and the engine facades
the machinery to survive them:

* :class:`RetryPolicy` — how hard to fight for unfilled slots: repost
  abandoned/expired slots with exponential backoff (optionally escalating
  the price through :mod:`repro.hits.pricing`), up to a max-attempt cap
  and an optional per-group virtual deadline, and accept a degraded
  k-of-n quorum once retries are exhausted;
* :class:`CircuitBreaker` — stop hammering a platform that keeps failing
  transiently;
* :class:`DegradationSummary` — the running account of everything the
  resilience layer did (retries, reposts, recovered/unfilled slots,
  degraded operators), surfaced as ``QueryResult.degradation_summary``
  and in EXPLAIN;
* :class:`ResilienceState` — one query's bundle of the three, built by
  :func:`build_resilience` and handed to
  :class:`~repro.hits.manager.TaskManager`.

Gating
------
An explicit ``ExecutionConfig(resilience=True)`` arms the layer on any
platform: a real one fails transiently without announcing a fault plan.
By default (``resilience=None``) :func:`build_resilience` returns ``None``
— the whole layer inert — unless ``REPRO_RESILIENCE`` is on *and* the
platform's ``faults`` is an active :class:`~repro.crowd.faults.FaultPlan`.
Fault-free default runs therefore keep strict behaviour bit-for-bit:
budget violations still raise :class:`~repro.errors.BudgetExceededError`,
refused oversized batches still raise
:class:`~repro.errors.HITUncompletedError`, and no recovery draws or
reposts perturb the golden trace. ``resilience=False`` always disarms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.errors import ConfigError
from repro.util.fields import Rule, check_fields, integer, real
from repro.util.toggles import RESILIENCE


@dataclass(frozen=True)
class RetryPolicy:
    """How hard one query fights for unfilled assignment slots."""

    retry_deadline: float | None = None
    """Virtual-seconds budget per HIT group, measured from its original
    post time: no repost is attempted whose backoff would start past this
    deadline. ``None`` means no deadline — only ``max_reposts`` caps the
    fight."""

    max_reposts: int = 2
    """Maximum repost rounds per HIT group label."""

    backoff_base: float = 120.0
    """Virtual seconds of backoff before the first repost; round ``n``
    waits ``backoff_base × backoff_factor^(n-1)``."""

    backoff_factor: float = 2.0
    """Exponential backoff multiplier between repost rounds."""

    price_escalation: float = 0.0
    """Fractional reward bump per repost round (0.25 ⇒ +25% on round 1,
    +50% on round 2 …), charged to the ledger as ``extra_cost``."""

    degrade_quorum: float = 0.5
    """Fraction of requested assignments a HIT must have collected, after
    retries exhaust, to count as a full (non-degraded) vote group.
    Combiners accept whatever k-of-n arrived either way; below this
    fraction the operator is flagged degraded in the summary."""

    circuit_threshold: int = 5
    """Consecutive transient platform errors before the breaker opens."""

    circuit_cooldown_seconds: float = 1800.0
    """Virtual seconds the breaker stays open before allowing a probe."""

    rules: ClassVar[dict[str, Rule]] = {
        "retry_deadline": real(0, low_open=True, optional=True),
        "max_reposts": integer(0),
        "backoff_base": real(0, low_open=True),
        "backoff_factor": real(1),
        "price_escalation": real(0),
        "degrade_quorum": real(0, 1, low_open=True),
        "circuit_threshold": integer(1),
        "circuit_cooldown_seconds": real(0),
    }

    def __post_init__(self) -> None:
        check_fields(self, self.rules, ConfigError)

    def backoff_for(self, attempt: int) -> float:
        """Backoff (virtual seconds) before repost round ``attempt`` (1-based)."""
        return self.backoff_base * (self.backoff_factor ** (attempt - 1))

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """Build a policy from an ``ExecutionConfig``: the fields the two
        share are read off it, the rest keep their defaults.

        Duck-typed on attribute names so this module never imports
        :mod:`repro.core` (the dependency points the other way).
        """
        shared = [f.name for f in fields(cls) if hasattr(config, f.name)]
        return cls(**{name: getattr(config, name) for name in shared})


@dataclass
class DegradationSummary:
    """Everything the resilience layer did on behalf of one query."""

    transient_retries: int = 0
    """Platform calls that failed transiently and were retried."""

    reposts: int = 0
    """Repost rounds executed (each may cover several HITs)."""

    reposted_hits: int = 0
    """Clone HITs posted across all repost rounds."""

    recovered_assignments: int = 0
    """Assignments recovered by reposting that the original posting lost."""

    unfilled_assignments: int = 0
    """Assignment slots still empty after all retries exhausted."""

    degraded_groups: int = 0
    """HITs that finished below the ``degrade_quorum`` vote fraction."""

    degraded_operators: list[str] = field(default_factory=list)
    """Labels of HIT groups that finished degraded, in posting order."""

    circuit_opens: int = 0
    """Times the circuit breaker tripped open."""

    def note_degraded(self, label: str) -> None:
        self.degraded_groups += 1
        if label not in self.degraded_operators:
            self.degraded_operators.append(label)

    def any(self) -> bool:
        """Whether anything at all was retried, reposted, or degraded."""
        return bool(
            self.transient_retries
            or self.reposts
            or self.reposted_hits
            or self.recovered_assignments
            or self.unfilled_assignments
            or self.degraded_groups
            or self.circuit_opens
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "transient_retries": self.transient_retries,
            "reposts": self.reposts,
            "reposted_hits": self.reposted_hits,
            "recovered_assignments": self.recovered_assignments,
            "unfilled_assignments": self.unfilled_assignments,
            "degraded_groups": self.degraded_groups,
            "degraded_operators": list(self.degraded_operators),
            "circuit_opens": self.circuit_opens,
        }


class CircuitBreaker:
    """Trip after ``threshold`` consecutive transient failures.

    Time is the marketplace's virtual clock. While open, calls are refused
    until ``cooldown`` virtual seconds pass; the first allowed probe that
    fails re-opens the breaker immediately.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 1800.0) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.opened_at: float | None = None

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None

    def allow(self, now: float) -> bool:
        """Whether a platform call may proceed at virtual time ``now``."""
        if self.opened_at is None:
            return True
        if now - self.opened_at >= self.cooldown:
            # Half-open: permit one probe; failure re-opens instantly.
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> bool:
        """Count a transient failure; returns True if the breaker opened."""
        self.failures += 1
        if self.failures >= self.threshold:
            self.opened_at = now
            return True
        return False


class ResilienceState:
    """One query's resilience bundle: policy + summary + breaker.

    Mutable and query-scoped: the engine builds a fresh one per
    ``execute()`` (the session per submitted query), so sibling queries in
    a session never share retry accounting or breaker state.
    """

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy or RetryPolicy()
        self.summary = DegradationSummary()
        self.breaker = CircuitBreaker(
            threshold=self.policy.circuit_threshold,
            cooldown=self.policy.circuit_cooldown_seconds,
        )
        self.aborted: str | None = None
        """Set by the query lifecycle when the query was cut short
        (a budget/marketplace failure absorbed into a completed query
        with no rows)."""


def build_resilience(config, platform) -> ResilienceState | None:
    """Build a query's :class:`ResilienceState`, or ``None`` when inert.

    ``config`` is an ``ExecutionConfig``-like object (duck-typed). Its
    ``resilience`` field arms (``True``) or disarms (``False``) the layer
    outright; ``None`` defers to ``REPRO_RESILIENCE`` plus the platform's
    ``faults`` plan being active — see the module docstring for why
    fault-free runs keep strict behaviour by default.
    """
    requested = getattr(config, "resilience", None)
    if not RESILIENCE.resolve(requested):
        return None
    if requested is None:
        plan = getattr(platform, "faults", None)
        if plan is None or not plan.active:
            return None
    return ResilienceState(RetryPolicy.from_config(config))
