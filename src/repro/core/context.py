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

from repro.combine import get_combiner
from repro.combine.adaptive import AdaptivePolicy
from repro.combine.base import Combiner
from repro.errors import PlanError
from repro.hits.manager import TaskManager
from repro.joins.batching import JoinInterface
from repro.relational.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import PlanNode

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
field; construction raises :class:`PlanError` naming the field otherwise."""


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
    None defers to the ``REPRO_ADAPT`` toggle (:mod:`repro.util.adapt`).
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
    per-round pre-flight in ``charge_budget_for_units`` remains the
    precise, cache-aware gate."""

    resilience: bool | None = None
    """Force the fault-injection/resilience layer on/off for this query;
    None defers to the ``REPRO_RESILIENCE`` toggle
    (:mod:`repro.util.resilience`). Even when on, the layer only arms
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
        for name, minimum in _MINIMUMS.items():
            value = getattr(self, name)
            # ``not >=`` also rejects NaN.
            if not isinstance(value, numbers.Real) or not value >= minimum:
                raise PlanError(f"{name} must be >= {minimum}, got {value!r}")
        if self.max_budget is not None and not (
            isinstance(self.max_budget, numbers.Real) and self.max_budget >= 0
        ):
            raise PlanError(
                f"max_budget must be None or >= 0, got {self.max_budget!r}"
            )
        if not 0.0 < self.adaptive_pilot_fraction <= 1.0:
            raise PlanError("adaptive_pilot_fraction must be in (0, 1]")
        # ``not x > 0`` also rejects NaN.
        if not self.backoff_base > 0:
            raise PlanError(f"backoff_base must be > 0, got {self.backoff_base!r}")
        if not 0.0 < self.degrade_quorum <= 1.0:
            raise PlanError("degrade_quorum must be in (0, 1]")
        if self.retry_deadline is not None and not self.retry_deadline > 0:
            raise PlanError(
                f"retry_deadline must be > 0 when set, got {self.retry_deadline!r}"
            )

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

    def combiner_for(self, task_combiner: str) -> Combiner:
        """Instantiate the effective combiner for a task."""
        name = self.config.combiner or task_combiner
        return get_combiner(name)

    def stats_for(self, node: "PlanNode") -> OperatorStats:
        """The mutable stats bucket for a plan node."""
        return self.node_stats.setdefault(id(node), OperatorStats(label=node.label()))

    def charge_budget_for_units(
        self, units, batch_size: int, assignments: int
    ) -> None:
        """Pre-flight a posting round of ``units`` against ``max_budget``.

        Projects through :meth:`TaskManager.projected_new_assignments`, so
        unit batches already answered in the task cache are not counted —
        but only when a budget is actually set: the projection re-merges
        the units and computes cache keys, work that must stay off the
        un-budgeted hot path.
        """
        if self.config.max_budget is None:
            return
        self.charge_budget(
            self.manager.projected_new_assignments(units, batch_size, assignments)
        )

    def charge_budget(self, upcoming_assignments: int) -> None:
        """Pre-flight budget check before posting more work.

        Counts the ledger plus any posted-but-unharvested work: when groups
        stay outstanding, ledger charges land at harvest time, so the
        scheduler's operator manager proxy exposes ``inflight_assignments``
        for them — keeping the abort point identical to a blocking
        platform's, where every posting charges the ledger before the next
        pre-flight check runs.
        """
        if self.config.max_budget is None:
            return
        inflight = getattr(self.manager, "inflight_assignments", 0)
        projected = self.manager.ledger.total_cost + self.manager.ledger.pricing.cost(
            upcoming_assignments + inflight
        )
        if projected > self.config.max_budget + 1e-9:
            from repro.errors import BudgetExceededError

            prefix = f"{self.label}: " if self.label else ""
            raise BudgetExceededError(
                f"{prefix}posting {upcoming_assignments} assignments would cost "
                f"${projected:.2f}, exceeding the ${self.config.max_budget:.2f} budget"
            )
