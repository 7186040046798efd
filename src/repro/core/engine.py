"""The Qurk engine facade: register data and tasks, run queries.

Typical use::

    market = SimulatedMarketplace(truth, seed=1)
    q = Qurk(platform=market)
    q.register_table(celebs)
    q.register_table(photos)
    q.define(SAME_PERSON_TASK_DSL)
    result = q.execute("SELECT c.name FROM celeb c JOIN photos p "
                       "ON samePerson(c.img, p.img)")
    result.rows, result.total_cost, result.hit_count, result.explain()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.adaptive import SelectivityBook, build_state, preflight
from repro.core.context import ExecutionConfig, OperatorStats, QueryContext
from repro.core.executor import run_plan
from repro.core.explain import plan_task_labels, render_explain
from repro.core.optimizer import optimize
from repro.core.plan import PlanNode
from repro.core.planner import build_plan
from repro.errors import BudgetExceededError, MarketplaceError, PlanError
from repro.hits.cache import TaskCache
from repro.hits.manager import CrowdPlatform, TaskManager
from repro.hits.pricing import CostLedger
from repro.hits.resilience import build_resilience
from repro.hits.store import PersistentAnswerStore, StoreSpec, open_store
from repro.language.ast import SelectQuery, TaskDefinition
from repro.language.parser import parse_statements
from repro.relational.catalog import Catalog
from repro.relational.rows import Row
from repro.relational.table import Table
from repro.sorting.topk import pick_extreme_order
from repro.tasks.base import task_from_definition
from repro.tasks.registry import ROLE_RANK, task_role
from repro.util import adapt as adapt_toggle
from repro.util import resilience as resilience_toggle
from repro.util import store as store_toggle
from repro.util import vector as vector_toggle


_STORE_COUNTERS = (
    "hits",
    "misses",
    "persistent_hits",
    "assignments_reused",
    "evictions_ttl",
    "evictions_budget",
)
"""Persistent-store counters snapshotted per query for the store summary."""


def resolve_store(
    spec: StoreSpec | None, cache: object | None
) -> PersistentAnswerStore | None:
    """The one store-attachment policy the engine and session share.

    Returns the opened store to use as the task cache, or ``None`` when
    nothing should be attached. With ``REPRO_STORE=0`` a configured store
    is ignored *entirely* — not even the file is opened — so the facade
    behaves bit-identically to one constructed without a store. A store
    and an explicit cache are mutually exclusive (the store *is* the
    cache).
    """
    if spec is None:
        return None
    if cache is not None:
        raise PlanError(
            "pass either cache= or store=, not both: a persistent store "
            "serves as the task cache"
        )
    if not store_toggle.enabled():
        return None
    return open_store(spec)


def store_counters(store: PersistentAnswerStore) -> dict[str, int]:
    """Counter snapshot used for per-query store-summary deltas."""
    return {name: getattr(store, name) for name in _STORE_COUNTERS}


def store_summary_delta(
    store: PersistentAnswerStore,
    before: dict[str, int],
    pricing,
) -> dict[str, object]:
    """Per-query (or per-session-run) store summary from a counter delta.

    ``cost_saved`` prices the assignments served from *disk* — the dollars
    a fresh process did not re-spend thanks to persistence. In-process
    memory-layer hits are the plain task cache's win and are reported as
    plain ``hits``.
    """
    delta = {
        name: getattr(store, name) - before[name] for name in _STORE_COUNTERS
    }
    summary: dict[str, object] = dict(delta)
    summary["cost_saved"] = pricing.cost(delta["assignments_reused"])
    summary["rows"] = store.row_count()
    if store.rebuilds:
        summary["rebuilds"] = store.rebuilds
    if store.degraded:
        summary["degraded"] = True
    return summary


def register_task_definitions(
    catalog: Catalog, dsl_text: str, replace: bool = False
) -> list[str]:
    """Parse TASK definitions into a catalog; returns the task names.

    The body of ``define()`` on both the engine and session facades.
    """
    names: list[str] = []
    for statement in parse_statements(dsl_text):
        if not isinstance(statement, TaskDefinition):
            raise PlanError(
                "define() accepts TASK definitions; execute queries separately"
            )
        task = task_from_definition(statement)
        catalog.register_task(task, replace=replace)
        names.append(task.name)
    return names


def parse_single_select(query: str | SelectQuery, catalog: Catalog) -> SelectQuery:
    """Parse query text to exactly one SELECT, registering any TASK
    definitions that ride along in the same text into ``catalog``.

    Shared by the engine and session facades so their query-text handling
    cannot drift apart.
    """
    if isinstance(query, SelectQuery):
        return query
    statements = parse_statements(query)
    queries = [s for s in statements if isinstance(s, SelectQuery)]
    for statement in statements:
        if isinstance(statement, TaskDefinition):
            catalog.register_task(task_from_definition(statement), replace=True)
    if len(queries) != 1:
        raise PlanError(f"expected exactly one SELECT, found {len(queries)}")
    return queries[0]


_FAULT_COUNTERS = (
    "abandoned_assignments",
    "expired_slots",
    "spam_assignments",
    "straggler_assignments",
    "transient_errors",
)
"""Marketplace fault-injection counters snapshotted per query for the
degradation summary."""


@dataclass(frozen=True)
class MarketplaceSnapshot:
    """Per-query delta of the platform's marketplace counters.

    A snapshot rather than the live stats object so that a
    :class:`QueryResult`'s EXPLAIN footer describes *this* query, like the
    sibling cost/clock fields, instead of mutating as later queries run.
    """

    considerations: int = 0
    refusals: int = 0
    assignments_completed: int = 0

    @property
    def considerations_per_assignment(self) -> float:
        """See :meth:`MarketplaceStats.considerations_per_assignment`."""
        if self.assignments_completed == 0:
            return 0.0
        return self.considerations / self.assignments_completed


@dataclass
class QueryResult:
    """Rows plus the execution economics and diagnostics."""

    rows: list[Row]
    plan: PlanNode
    hit_count: int = 0
    assignment_count: int = 0
    total_cost: float = 0.0
    elapsed_seconds: float = 0.0
    node_stats: dict[int, OperatorStats] = field(default_factory=dict)
    marketplace_stats: MarketplaceSnapshot | None = None
    """This query's marketplace-counter deltas, when the platform exposes
    stats (the simulated marketplace does)."""
    pipeline_summary: dict[str, float] | None = None
    """Whole-query overlap telemetry (stages, groups, peak outstanding,
    makespan vs serial latency); set for every completed query."""
    adaptive_summary: dict[str, object] | None = None
    """Re-plan telemetry when the adaptive optimizer ran: replan/round
    counts, predicted vs. actual HITs and dollars, and the event log;
    None under ``REPRO_ADAPT=0``."""
    degradation_summary: dict[str, object] | None = None
    """What the resilience layer did for this query (transient retries,
    reposts, recovered/unfilled slots, degraded operators, injected-fault
    counts, and ``aborted`` when the query was cut short and completed
    with partial rows); None when the layer was inert — toggle off or a
    fault-free platform."""
    store_summary: dict[str, object] | None = None
    """Persistent-answer-store traffic for this query (hits/misses, the
    disk hits and assignments a fresh process reused, eviction counts, and
    the dollars persistence saved); None when no store is attached
    (including under ``REPRO_STORE=0``)."""
    task_labels: dict[str, str] | None = None
    """task name → registry EXPLAIN label for the crowd tasks this query
    used (each task type's declared ``explain_label``)."""

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[object]:
        """One output column's values in row order."""
        return [row[name] for row in self.rows]

    def as_dicts(self) -> list[dict[str, object]]:
        """Rows as plain dicts."""
        return [row.as_dict() for row in self.rows]

    def explain(self) -> str:
        """EXPLAIN-style tree with per-operator quality signals (§6)."""
        return render_explain(
            self.plan,
            self.node_stats,
            marketplace_stats=self.marketplace_stats,
            pipeline_summary=self.pipeline_summary,
            adaptive_summary=self.adaptive_summary,
            degradation_summary=self.degradation_summary,
            store_summary=self.store_summary,
            task_labels=self.task_labels,
        )


class Qurk:
    """A crowd-powered declarative query engine (the paper's system)."""

    def __init__(
        self,
        platform: CrowdPlatform,
        config: ExecutionConfig | None = None,
        catalog: Catalog | None = None,
        ledger: CostLedger | None = None,
        cache: TaskCache | None = None,
        store: StoreSpec | None = None,
    ) -> None:
        # Honour REPRO_* environment changes made after import (the
        # toggles' import-time capture used to swallow them silently).
        adapt_toggle.refresh_from_env()
        resilience_toggle.refresh_from_env()
        store_toggle.refresh_from_env()
        vector_toggle.refresh_from_env()
        self.platform = platform
        self.config = config or ExecutionConfig()
        self.catalog = catalog or Catalog()
        self.ledger = ledger or CostLedger()
        self.store = resolve_store(store, cache)
        """The attached persistent answer store (``None`` when no ``store=``
        was configured or ``REPRO_STORE=0`` ignored it)."""
        # Explicit None test: an *empty* store is falsy (len() == 0) but
        # must still be attached.
        self.manager = TaskManager(
            platform,
            ledger=self.ledger,
            cache=self.store if self.store is not None else cache,
        )
        self.book = SelectivityBook()
        """The engine's online selectivity estimates, shared across its
        (serial) queries: a repeated workload's later queries start from
        the pass rates the earlier ones observed."""

    def session(
        self,
        cache: TaskCache | None = None,
        store: StoreSpec | None = None,
    ) -> "EngineSession":
        """A multi-query session over this engine's platform and catalog.

        The session shares the engine's catalog (tables/tasks registered
        here are visible to session queries) and default config, but keeps
        its own per-query ledgers; pass a :class:`TaskCache` to seed the
        session's shared cross-query cache, or a store spec to persist it.
        An engine constructed with ``store=`` hands its (already opened)
        store to sessions by default, so session queries reuse — and feed
        — the same cross-run answers. See
        :class:`repro.core.session.EngineSession`.
        """
        from repro.core.session import EngineSession

        if store is None and cache is None:
            store = self.store
        return EngineSession(
            self.platform,
            config=self.config,
            catalog=self.catalog,
            cache=cache,
            store=store,
        )

    # -- registration ------------------------------------------------------

    def register_table(self, table: Table, replace: bool = False) -> None:
        """Make a table queryable."""
        self.catalog.register_table(table, replace=replace)

    def register_function(
        self, name: str, fn: Callable[..., object], replace: bool = False
    ) -> None:
        """Register a computer-evaluable scalar function."""
        self.catalog.register_function(name, fn, replace=replace)

    def define(self, dsl_text: str, replace: bool = False) -> list[str]:
        """Parse and register TASK definitions; returns the task names."""
        return register_task_definitions(self.catalog, dsl_text, replace=replace)

    # -- execution ---------------------------------------------------------

    def plan(self, query: str | SelectQuery) -> PlanNode:
        """Parse, plan, and optimize a query without running it.

        Reflects the adaptive optimizer's plan-time decisions (crowd
        conjunct fusion) under the engine's default config; the throwaway
        state shares the engine's selectivity book but records nothing.
        """
        return self._optimized(query, build_state(self.config, book=self.book))

    def _optimized(self, query: str | SelectQuery, state) -> PlanNode:
        """The one plan-construction pipeline ``plan`` and ``execute`` share."""
        return optimize(
            build_plan(self._parse(query), self.catalog), adapt=state
        )

    def execute(
        self, query: str | SelectQuery, config: ExecutionConfig | None = None
    ) -> QueryResult:
        """Run a query against the crowd platform."""
        effective = config or self.config
        state = build_state(effective, book=self.book)
        plan = self._optimized(query, state)
        if state is not None:
            preflight(state, plan, self.catalog, effective, self.ledger.pricing)
        res_state = build_resilience(effective, self.platform)
        self.manager.resilience = res_state
        ctx = QueryContext(
            catalog=self.catalog,
            manager=self.manager,
            config=effective,
            adapt=state,
        )
        hits_before = self.ledger.total_hits
        assignments_before = self.ledger.total_assignments
        cost_before = self.ledger.total_cost
        clock_before = self.platform.clock_seconds
        store_before = (
            store_counters(self.store) if self.store is not None else None
        )
        live_stats = getattr(self.platform, "stats", None)
        if live_stats is not None:
            considerations_before = getattr(live_stats, "considerations", 0)
            refusals_before = getattr(live_stats, "refusals", 0)
            completed_before = getattr(live_stats, "assignments_completed", 0)
            faults_before = {
                name: getattr(live_stats, name, 0) for name in _FAULT_COUNTERS
            }
        try:
            rows = run_plan(plan, ctx)
        except (BudgetExceededError, MarketplaceError) as exc:
            # Graceful query-level degradation: with the resilience layer
            # armed, a budget/platform failure completes the query with no
            # rows instead of raising; the summary says why. Without it,
            # today's strict raise is preserved.
            if res_state is None:
                raise
            res_state.aborted = f"{type(exc).__name__}: {exc}"
            rows = []
        degradation = None
        if res_state is not None:
            degradation = res_state.summary.as_dict()
            if live_stats is not None:
                for name in _FAULT_COUNTERS:
                    degradation[name] = (
                        getattr(live_stats, name, 0) - faults_before[name]
                    )
            if res_state.aborted is not None:
                degradation["aborted"] = res_state.aborted
        snapshot = None
        if live_stats is not None:
            snapshot = MarketplaceSnapshot(
                considerations=getattr(live_stats, "considerations", 0)
                - considerations_before,
                refusals=getattr(live_stats, "refusals", 0) - refusals_before,
                assignments_completed=getattr(live_stats, "assignments_completed", 0)
                - completed_before,
            )
        return QueryResult(
            rows=rows,
            plan=plan,
            hit_count=self.ledger.total_hits - hits_before,
            assignment_count=self.ledger.total_assignments - assignments_before,
            total_cost=self.ledger.total_cost - cost_before,
            elapsed_seconds=self.platform.clock_seconds - clock_before,
            node_stats=ctx.node_stats,
            marketplace_stats=snapshot,
            pipeline_summary=ctx.pipeline_summary,
            adaptive_summary=state.summary(
                actual_hits=self.ledger.total_hits - hits_before,
                actual_cost=self.ledger.total_cost - cost_before,
            )
            if state is not None
            else None,
            degradation_summary=degradation,
            store_summary=store_summary_delta(
                self.store, store_before, self.ledger.pricing
            )
            if self.store is not None and store_before is not None
            else None,
            task_labels=plan_task_labels(plan, self.catalog),
        )

    def explain(self, query: str | SelectQuery) -> str:
        """The optimized plan tree without executing (no stats)."""
        plan = self.plan(query)
        return render_explain(
            plan, {}, task_labels=plan_task_labels(plan, self.catalog)
        )

    def _parse(self, query: str | SelectQuery) -> SelectQuery:
        return parse_single_select(query, self.catalog)

    # -- aggregates ----------------------------------------------------------

    def extreme(
        self,
        task_name: str,
        items: Sequence[str],
        most: bool = True,
        batch_size: int = 5,
        assignments: int | None = None,
    ) -> tuple[str, int]:
        """MAX/MIN via the best-of-batch tournament interface (§2.3).

        Returns (winning item ref, HITs spent).
        """
        from repro.core.sort_exec import pick_best_payload, tally_pick_votes

        task = self.catalog.task(task_name)
        if task_role(task) != ROLE_RANK:
            raise PlanError(f"extreme() needs a Rank task, got {type(task).__name__}")
        votes_requested = assignments or self.config.assignments

        def pick(batch: Sequence[str]) -> str:
            payload = pick_best_payload(task, batch, most)
            outcome = self.manager.run_units(
                [[payload]],
                batch_size=1,
                assignments=votes_requested,
                label="aggregate:extreme",
            )
            return tally_pick_votes(payload, outcome.votes.get(payload.qid(), []))

        return pick_extreme_order(items, pick, batch_size=batch_size)
