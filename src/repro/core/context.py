"""Execution configuration and per-query context.

:class:`ExecutionConfig` carries every tunable the paper studies — batch
sizes, join interface, sort method, assignment counts, combiner choice,
feature-filtering switches — so experiments are pure configuration sweeps.
:class:`QueryContext` carries the live machinery (catalog, task manager,
stats) through one query execution.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.combine import combiner_names, get_combiner
from repro.combine.adaptive import AdaptivePolicy
from repro.combine.base import Combiner
from repro.errors import BudgetExceededError, PlanError
from repro.hits.manager import BatchOutcome, PendingBatch, TaskManager
from repro.joins.batching import JoinInterface
from repro.relational.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import PlanNode
    from repro.core.scheduler import OperatorBinding

_MINIMUMS: dict[str, int] = {
    "assignments": 1,
    "filter_batch_size": 1,
    "generative_batch_size": 1,
    "naive_batch_size": 1,
    "grid_rows": 1,
    "grid_cols": 1,
    "compare_group_size": 2,
    "compare_batch_groups": 1,
    "rate_batch_size": 1,
    "rate_anchor_count": 0,
    "hybrid_stride": 1,
    "hybrid_iterations": 0,
    "limit_pick_batch_size": 2,
    "pipeline_chunk_size": 1,
    "pipeline_queue_chunks": 1,
    "adaptive_min_pilot": 1,
    "max_reposts": 0,
}
"""Smallest accepted value of each count-valued :class:`ExecutionConfig`
field. Each must be an ``int`` (not a ``bool``, not a float such as 2.5)
at least this large; construction raises :class:`PlanError` naming the
field otherwise."""

_REALS = {
    "max_budget": (True, ">= 0", lambda v: v >= 0),
    "adaptive_pilot_fraction": (False, "in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "backoff_base": (False, "> 0", lambda v: v > 0),
    "degrade_quorum": (False, "in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "retry_deadline": (True, "> 0", lambda v: v > 0),
}
"""Each real-valued field → (may it be None, its range, the check). Bools
are not real numbers here, and NaN fails every check."""


@dataclass(frozen=True)
class ExecutionConfig:
    """Every knob the operators read. Defaults follow the paper's setup."""

    assignments: int = 5
    """Worker responses requested per HIT (§2.1 default)."""

    combiner: str | None = None
    """Override the per-task combiner ('MajorityVote' / 'QualityAdjust')."""

    filter_batch_size: int = 5
    """Tuples per filter HIT (merging)."""

    generative_batch_size: int = 4
    """Tuples per generative HIT (the paper's feature extraction used 4)."""

    combine_features: bool = True
    """Ask all of a tuple's features in one HIT (combining, §3.3.4)."""

    join_interface: JoinInterface = JoinInterface.SMART
    """Which join UI to use."""

    naive_batch_size: int = 5
    """Pairs per NaiveBatch HIT."""

    grid_rows: int = 5
    grid_cols: int = 5
    """SmartBatch grid dimensions."""

    use_feature_filters: bool = True
    """Apply POSSIBLY clauses at all."""

    auto_feature_selection: bool = False
    """Run the §3.2 rejection tests instead of applying every feature."""

    sort_method: str = "compare"
    """'compare', 'rate', or 'hybrid' (§4.1)."""

    compare_group_size: int = 5
    """Items per comparison group (S)."""

    compare_batch_groups: int = 1
    """Comparison groups per HIT (b)."""

    rate_batch_size: int = 5
    """Ratings per HIT (b)."""

    rate_anchor_count: int = 10
    """Random context items shown in the rating interface."""

    hybrid_strategy: str = "window"
    """'random', 'confidence', or 'window'."""

    hybrid_stride: int = 6
    """Sliding-window stride t (Window 6 won in §4.2.4)."""

    hybrid_iterations: int = 30
    """Comparison HITs the hybrid sort may spend."""

    limit_sort_tournament: bool = True
    """Answer ``ORDER BY rank(...) LIMIT k`` with tournaments. When on (and
    the sort method is 'compare', the ORDER BY has no plain prefix, and k
    is below the item count), the sort extracts the leading k items with
    successive best-of-batch tournaments (§2.3's MAX/MIN interface)
    instead of full C(N, 2) pair coverage — O(N·k/b) HITs instead of
    O(N²). The two settings ask the crowd different questions: the
    leading rows come back identical whenever the crowd's judgements
    among the leaders are consistent (high-margin comparisons), while for
    genuinely ambiguous leaders the tournament can disagree with the full
    sort's win-count ranking — just as re-running the full sort against a
    different crowd would. Set this to False for correctness-sensitive
    queries over ambiguous data."""

    limit_pick_batch_size: int = 5
    """Items per best-of-batch pick HIT in the LIMIT tournament path."""

    adaptive: AdaptivePolicy | None = None
    """Adaptive assignment counts (§6 extension); None = fixed count."""

    max_budget: float | None = None
    """Abort (raise) before posting work that would exceed this many dollars."""

    strict_hits: bool = True
    """Raise when the crowd leaves HITs uncompleted."""

    seed: int = 0
    """Seed for engine-side sampling (covering groups, anchors, windows)."""

    pipeline_chunk_size: int = 64
    """Rows per chunk flowing through the pipelined executor's queues."""

    pipeline_queue_chunks: int = 8
    """Bounded capacity (in chunks) of each inter-operator queue; a full
    queue stalls the producer (back-pressure)."""

    adapt: bool | None = None
    """Force the cost-based adaptive re-optimizer on/off for this query;
    None defers to the ``REPRO_ADAPT`` toggle (``repro.util.toggles.ADAPT``).
    When active, adjacent crowd WHERE conjuncts fuse into an adaptive
    filter that orders them by observed selectivity and re-plans after
    every crowd round (:mod:`repro.core.adaptive`)."""

    adaptive_pilot_fraction: float = 0.2
    """Fraction of a fused chain's input rows the pilot pass samples to
    measure each conjunct's selectivity before ordering the cascade."""

    adaptive_min_pilot: int = 5
    """Smallest worthwhile pilot sample; inputs below twice this skip the
    pilot and cascade in observed-estimate order directly."""

    budget_preflight: bool = False
    """With ``max_budget`` set and the adaptive optimizer active, abort
    before posting *anything* when the cost model's whole-plan forecast
    says even a trimmed allocation cannot fit (see
    :func:`repro.core.budget.plan_preflight`). Off by default: the
    per-group pre-flight in :meth:`QueryContext.post` remains the
    precise, cache-aware gate."""

    resilience: bool | None = None
    """Arm (``True``) or disarm (``False``) the resilience layer for this
    query, on any platform. None defers to the ``REPRO_RESILIENCE`` toggle
    (``repro.util.toggles.RESILIENCE``), and then the layer only arms
    against a platform carrying an active
    :class:`~repro.crowd.faults.FaultPlan` — fault-free marketplaces keep
    the strict historical behaviour bit-for-bit."""

    retry_deadline: float | None = None
    """Virtual-seconds retry budget per HIT group (from its original post
    time): reposts whose backoff would start past this are skipped and the
    group degrades instead. None = no deadline; only ``max_reposts`` caps
    the fight."""

    max_reposts: int = 2
    """Maximum repost rounds per HIT group when slots go unfilled."""

    backoff_base: float = 120.0
    """Virtual seconds of backoff before the first repost round; round n
    waits ``backoff_base * 2^(n-1)``."""

    degrade_quorum: float = 0.5
    """Fraction of requested assignments below which a HIT that exhausted
    its retries is flagged degraded in ``degradation_summary`` (combiners
    accept whatever k-of-n votes arrived either way)."""

    def __post_init__(self) -> None:
        if self.sort_method not in ("compare", "rate", "hybrid"):
            raise PlanError(f"unknown sort method {self.sort_method!r}")
        if self.hybrid_strategy not in ("random", "confidence", "window"):
            raise PlanError(f"unknown hybrid strategy {self.hybrid_strategy!r}")
        if not isinstance(self.limit_sort_tournament, bool):
            raise PlanError(
                "limit_sort_tournament must be True or False, got "
                f"{self.limit_sort_tournament!r}"
            )
        for name in ("adapt", "resilience"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise PlanError(f"{name} must be None, True or False, got {value!r}")
        if self.combiner is not None and self.combiner not in combiner_names():
            raise PlanError(
                f"combiner must be None or one of {list(combiner_names())}, "
                f"got {self.combiner!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise PlanError(f"seed must be an integer, got {self.seed!r}")
        if self.adaptive is not None and not isinstance(self.adaptive, AdaptivePolicy):
            raise PlanError(
                f"adaptive must be None or an AdaptivePolicy, got {self.adaptive!r}"
            )
        for name, minimum in _MINIMUMS.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise PlanError(f"{name} must be an integer >= {minimum}, got {value!r}")
        for name, (optional, rule, holds) in _REALS.items():
            value = getattr(self, name)
            if value is None and optional:
                continue
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and holds(value)):
                allowed = "None or a real number" if optional else "a real number"
                raise PlanError(f"{name} must be {allowed} {rule}, got {value!r}")

    def with_overrides(self, **kwargs) -> "ExecutionConfig":
        """A copy with some fields replaced (experiment sweeps)."""
        return replace(self, **kwargs)


@dataclass
class PipelineStats:
    """Per-operator pipelined-execution telemetry for EXPLAIN.

    Filled in by :mod:`repro.core.scheduler` for every operator it runs;
    ``None`` on :class:`OperatorStats` built outside the scheduler.
    """

    stage: int = 0
    """The operator's position in the pipeline's deterministic posting
    order (post-order plan rank). The order is the same whether or not the
    platform overlaps groups, which is why blocking and overlapping runs
    produce the same vote streams."""

    depth: int = 0
    """Chain length from this operator down to its deepest leaf — the
    number of pipeline stages whose work can be in flight below it."""

    queue_capacity: int = 0
    """Output-queue bound, in chunks."""

    queue_peak: int = 0
    """High-water occupancy of the output queue, in chunks."""

    chunks_emitted: int = 0
    """Chunks this operator pushed downstream."""

    emit_stalls: int = 0
    """Times the operator blocked on a full output queue (back-pressure)."""

    groups_posted: int = 0
    """HIT groups this operator posted."""

    peak_outstanding: int = 0
    """Most HIT groups this operator had outstanding at once."""

    started_at: float = 0.0
    finished_at: float = 0.0
    """Virtual-time interval over which the operator was live."""


@dataclass
class OperatorStats:
    """Signals collected per plan node for EXPLAIN (§6)."""

    label: str = ""
    hits: int = 0
    assignments: int = 0
    rows_in: int = 0
    rows_out: int = 0
    elapsed_seconds: float = 0.0
    signals: dict[str, float] = field(default_factory=dict)
    pipeline: PipelineStats | None = None

    def add(self, outcome: BatchOutcome) -> None:
        """Fold one crowd phase's outcome into the node's counts: HITs,
        assignments, and the phase's own virtual duration."""
        self.hits += outcome.hit_count
        self.assignments += outcome.assignment_count
        self.elapsed_seconds += outcome.elapsed_seconds


@dataclass
class QueryContext:
    """Live state for one query execution."""

    catalog: Catalog
    manager: TaskManager
    config: ExecutionConfig = field(default_factory=ExecutionConfig)
    node_stats: dict[int, OperatorStats] = field(default_factory=dict)
    pipeline_summary: dict[str, float] | None = None
    """Whole-query pipeline telemetry (stages, makespan, serial latency,
    peak outstanding groups), set when the scheduler finishes the query;
    None while it runs and after an abort."""
    label: str = ""
    """Which query this is, for diagnostics — a session sets its per-query
    key here so e.g. budget aborts say which of its queries hit the cap."""

    adapt: object | None = None
    """The query's :class:`~repro.core.adaptive.AdaptiveState` (selectivity
    book, re-plan event log, cost forecast) when the adaptive optimizer is
    active; None under ``REPRO_ADAPT=0``. Typed loosely to keep this module
    import-light; the engine and session construct it."""

    binding: OperatorBinding | None = None
    """The scheduler's binding for the operator this context was handed to
    (its local clock and the scheduler's book of its groups); None outside
    the scheduler, where :meth:`post` posts blocking."""

    def combiner_for(self, task_combiner: str) -> Combiner:
        """Instantiate the effective combiner for a task."""
        name = self.config.combiner or task_combiner
        return get_combiner(name)

    def stats_for(self, node: "PlanNode") -> OperatorStats:
        """The mutable stats bucket for a plan node."""
        return self.node_stats.setdefault(id(node), OperatorStats(label=node.label()))

    def post(
        self,
        units,
        batch_size: int,
        assignments: int,
        label: str,
        cache_round: int = 1,
    ) -> PendingBatch:
        """Post one HIT group of ``units``: the one way operators hand work
        to the crowd. Collect it with ``.result()``. ``cache_round`` is the
        collection round (adaptive top-ups count 2, 3, ...; see
        :attr:`~repro.hits.hit.HIT.cache_round`).

        Pre-flights ``max_budget`` first. The projection goes through
        :meth:`TaskManager.projected_new_assignments`, so unit batches
        already answered in the task cache are not counted, but only when
        a budget is set: it re-merges the units and computes cache keys,
        work that must stay off the un-budgeted hot path. It also counts
        the binding's posted-but-unharvested assignments, whose ledger
        charges land at harvest, so the abort point is the one a blocking
        platform reaches, where every posting charges the ledger before
        the next pre-flight.

        The group is then posted under ``strict_hits``: at the operator's
        local clock through :attr:`binding` when the scheduler runs the
        operator, else blocking at the platform clock.
        """
        binding = self.binding
        if self.config.max_budget is not None:
            upcoming = self.manager.projected_new_assignments(
                units, batch_size, assignments, cache_round
            )
            inflight = 0 if binding is None else binding.inflight_assignments
            ledger = self.manager.ledger
            projected = ledger.total_cost + ledger.pricing.cost(upcoming + inflight)
            if projected > self.config.max_budget + 1e-9:
                prefix = f"{self.label}: " if self.label else ""
                raise BudgetExceededError(
                    f"{prefix}posting {upcoming} assignments would cost "
                    f"${projected:.2f}, exceeding the "
                    f"${self.config.max_budget:.2f} budget"
                )
        pending = self.manager.begin_units(
            units,
            batch_size,
            assignments,
            label=label,
            strict=self.config.strict_hits,
            post_time=None if binding is None else binding.post_time,
            cache_round=cache_round,
        )
        if binding is not None:
            binding.book(pending)
        return pending
