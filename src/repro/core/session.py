"""Multi-query sessions, and the one query lifecycle every query runs.

The paper frames Qurk as a workflow engine serving *many* users' queries
against one crowd marketplace; this module is that serving layer. An
:class:`EngineSession` accepts N queries and runs each through the
pipelined scheduler (:mod:`repro.core.scheduler`) as a named client of one
shared :class:`~repro.crowd.marketplace.SimulatedMarketplace` virtual
clock, with three session-level guarantees:

* **Fair round-robin admission.** Each live query advances by one
  scheduler effect per round (:meth:`PipelineScheduler.step_once`), so a
  heavyweight query cannot starve a light one of marketplace admission;
  the session's admission log records the interleaving.
* **Cross-query HIT dedup.** Every query posts through a
  :class:`~repro.hits.cache.TaskCacheView` over one shared
  :class:`~repro.hits.cache.TaskCache`: identical units posted by
  different queries are asked of the crowd once and fanned out, with the
  borrowed assignments (and dollars saved) attributed per query.
* **Budget isolation.** Each query has its own
  :class:`~repro.hits.pricing.CostLedger` and ``max_budget``; a
  :class:`~repro.errors.BudgetExceededError` (or any other failure) in
  one query settles that query's outstanding groups and is recorded on
  its handle — sibling queries' ledgers and executions are untouched.

The query lifecycle
-------------------
:func:`run_queries` is the only per-query path; ``Qurk.execute`` is a
one-query run of it. It snapshots each query's counters (ledger, clock,
marketplace counters from its client or else ``platform.stats``, store),
plans the query — a planning failure, such as a ``budget_preflight``
abort, lands on the handle and is never absorbed — and drives it: one
round-robin over the queries' schedulers, where a query that runs alone
(the engine's, or each query of a serial session) is a one-element
round-robin. With the resilience layer armed, a run-time budget or
marketplace failure completes the query with no rows and an ``aborted``
reason. One function builds every :class:`~repro.core.engine.QueryResult`
from the counter deltas; a per-query ``store_summary`` is set whenever no
other query ran at the same time (a concurrent session reports its store
traffic in :attr:`SessionStats.store_summary`).

Determinism
-----------
Each query's marketplace draws come from its own client stream keyed by
*its own* posting order (see "Named clients" in
:mod:`repro.crowd.marketplace`), so a query's rows, votes, and ledger are
bit-identical whether the session runs its queries concurrently or
serially (``run(concurrent=False)``) — concurrency changes completion
*times*, not results. A single-query session runs on the marketplace's
default client stream and equals a plain
:class:`~repro.core.engine.Qurk` execution field for field, which
``tests/test_determinism_trace.py`` pins against the golden trace.

The exception is deliberate: cross-query cache sharing lets a query reuse
a sibling's answers, in which case its votes equal the sibling's instead
of fresh draws. Cached entries belong to whichever query posts a unit
first, and *that* is a property of the schedule — for queries that share
HITs, the two run modes can disagree about which sibling posts a shared
unit first (and therefore whose stream answered it and who paid). Each
unit is still asked of the crowd exactly once in either mode; per-query
bit-identicality across modes is guaranteed for queries that share no
HITs, and holds for shared-HIT workloads whenever the admission order of
the shared units is the same under both schedules (e.g. identical queries
progressing in lockstep).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.adaptive import AdaptiveState, SelectivityBook, build_state, preflight
from repro.core.context import ExecutionConfig, QueryContext
from repro.core.engine import (
    MarketplaceSnapshot,
    QueryResult,
    plan_query,
    register_task_definitions,
    resolve_store,
    store_counters,
    store_summary_delta,
)
from repro.core.explain import plan_task_labels, render_session_summary
from repro.core.plan import PlanNode
from repro.core.scheduler import PipelineScheduler
from repro.crowd.marketplace import CLIENT_COUNTERS, FAULT_COUNTERS, MarketplaceClient
from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    MarketplaceError,
    PlanError,
)
from repro.hits.cache import HITCache, TaskCache, TaskCacheView
from repro.hits.manager import (
    CrowdPlatform,
    PostAndWaitPlatform,
    TaskManager,
    ticket_platform,
)
from repro.hits.pricing import CostLedger
from repro.hits.resilience import ResilienceState, build_resilience
from repro.hits.store import PersistentAnswerStore, StoreSpec
from repro.language.ast import SelectQuery
from repro.relational.catalog import Catalog
from repro.relational.rows import Row
from repro.relational.table import Table
from repro.util.toggles import refresh_all


@dataclass
class SessionQuery:
    """One submitted query's handle: inputs before :meth:`EngineSession.run`,
    outcome after.

    Exactly one of ``result`` / ``error`` is set once the session ran.
    """

    key: str
    """Stable session-assigned id (``q0``, ``q1``, ... in submission order);
    also the query's marketplace client id in multi-query sessions."""

    label: str
    query: str | SelectQuery
    catalog: Catalog
    config: ExecutionConfig

    plan: PlanNode | None = None
    result: QueryResult | None = None
    error: Exception | None = None

    # live machinery, populated by the session at run time
    ledger: CostLedger = field(default_factory=CostLedger)
    cache_view: TaskCacheView | None = None
    client: MarketplaceClient | None = None
    ctx: QueryContext | None = None
    adapt_state: AdaptiveState | None = None
    """The query's own adaptive-optimizer state. Estimate state is
    strictly per-query under concurrency: each query's selectivity book
    sees only its own observations, so its re-planning is a deterministic
    function of its own progress, never of how far siblings happen to have
    advanced in the round-robin."""
    resilience_state: ResilienceState | None = None
    """The query's own resilience bundle (retry policy, degradation
    summary, circuit breaker); ``None`` when the layer is inert. Strictly
    per-query: an aborted or degraded query settles its own groups while
    siblings and the shared cache stay untouched."""
    _sched: PipelineScheduler | None = None
    _before: _Counters | None = None

    @property
    def ok(self) -> bool:
        """Whether the query completed (vs failed or not yet run)."""
        return self.result is not None

    @property
    def cross_cache_hits(self) -> int:
        """HIT lookups this query served from another query's entries."""
        return self.cache_view.cross_hits if self.cache_view is not None else 0

    @property
    def cross_assignments_shared(self) -> int:
        """Assignments this query reused instead of re-posting."""
        return self.cache_view.cross_assignments if self.cache_view is not None else 0

    def arm(
        self, manager: TaskManager, book: SelectivityBook | None = None, label: str = ""
    ) -> None:
        """Bind the query to the Task Manager it posts through: build its
        resilience bundle (installed on ``manager`` too), its adaptive state
        over ``book`` (a fresh one when None), and its context, whose
        ``label`` prefixes budget-abort messages."""
        self.resilience_state = manager.resilience = build_resilience(
            self.config, manager.platform
        )
        self.adapt_state = build_state(self.config, book=book)
        self.ctx = QueryContext(
            catalog=self.catalog,
            manager=manager,
            config=self.config,
            label=label,
            adapt=self.adapt_state,
        )


@dataclass(frozen=True)
class _Counters:
    """One side of a query's before/after counter snapshot."""

    clock: float
    hits: int
    assignments: int
    cost: float
    market: dict[str, int] | None
    """:data:`~repro.crowd.marketplace.CLIENT_COUNTERS` from the query's
    client, else ``platform.stats``; None when the platform keeps no stats."""
    store: dict[str, int] | None

    @classmethod
    def of(cls, handle: SessionQuery, store: PersistentAnswerStore | None) -> _Counters:
        platform = handle.ctx.manager.platform
        source = handle.client or getattr(platform, "stats", None)
        return cls(
            clock=platform.clock_seconds,
            hits=handle.ledger.total_hits,
            assignments=handle.ledger.total_assignments,
            cost=handle.ledger.total_cost,
            market=None
            if source is None
            else {name: getattr(source, name, 0) for name in CLIENT_COUNTERS},
            store=None if store is None else store_counters(store),
        )


def run_queries(
    handles: list[SessionQuery],
    store: PersistentAnswerStore | None,
    concurrent: bool = False,
) -> None:
    """The one query lifecycle (see the module docstring) over armed
    handles: all planned, then driven together, when ``concurrent``;
    otherwise each alone, in order. Per-query failures land on the handles.
    """
    if concurrent:
        _drive([handle for handle in handles if _start(handle, store)], store)
        return
    for handle in handles:
        if _start(handle, store):
            _drive([handle], store)


def _start(handle: SessionQuery, store: PersistentAnswerStore | None) -> bool:
    """Snapshot the counters, plan the query, and arm its scheduler;
    returns False when planning failed (the error is on the handle)."""
    handle._before = _Counters.of(handle, store)
    try:
        handle.plan = plan_query(handle.query, handle.catalog, handle.adapt_state)
        if handle.adapt_state is not None:
            preflight(
                handle.adapt_state,
                handle.plan,
                handle.catalog,
                handle.config,
                handle.ledger.pricing,
            )
        handle._sched = PipelineScheduler(handle.plan, handle.ctx)
        handle._sched.prepare()
    except Exception as exc:
        handle.error = exc
        return False
    return True


def _drive(handles: list[SessionQuery], store: PersistentAnswerStore | None) -> None:
    """The one driver: one scheduler effect per live query per round."""
    # Store traffic is a query's own only when no other query ran with it.
    store = store if len(handles) == 1 else None
    live = list(handles)
    while live:
        for handle in list(live):
            sched = handle._sched
            try:
                sched.step_once()
            except Exception as exc:
                # Harvest the query's own posted groups; siblings and the
                # shared cache are untouched.
                sched.settle()
                _fail(handle, exc, store)
            else:
                if not sched.done:
                    continue
                _finish(handle, sched.finish(), store)
            live.remove(handle)


def _fail(
    handle: SessionQuery, exc: Exception, store: PersistentAnswerStore | None
) -> None:
    """The one abort rule: with the resilience layer armed, a run-time
    budget or marketplace failure completes the query with no rows and an
    ``aborted`` reason; anything else lands on the handle.

    No rows, because an aborted query never has any: every crowd operator
    emits only after its whole phase, and a plan is a tree, so no row
    reaches the root before every crowd operator has finished.
    """
    state = handle.resilience_state
    if state is not None and isinstance(exc, (BudgetExceededError, MarketplaceError)):
        state.aborted = f"{type(exc).__name__}: {exc}"
        _finish(handle, [], store)
    else:
        handle.error = exc


def _finish(
    handle: SessionQuery, rows: list[Row], store: PersistentAnswerStore | None
) -> None:
    """Build the query's :class:`QueryResult` — the only place one is
    built — from the counter deltas since :func:`_start`; with a ``store``,
    its per-query store summary too."""
    before, after = handle._before, _Counters.of(handle, store)
    client = handle.client
    if client is None:
        elapsed = after.clock - before.clock
    elif client.last_finish_time is None:
        elapsed = 0.0  # no crowd work reached the marketplace
    else:
        # The query's own span: the shared clock also moves on siblings'
        # harvests.
        elapsed = max(0.0, client.last_finish_time - before.clock)
    market = None
    if before.market is not None:
        market = {
            name: after.market[name] - before.market[name] for name in CLIENT_COUNTERS
        }
    degradation = None
    state = handle.resilience_state
    if state is not None:
        degradation = state.summary.as_dict()
        if market is not None:
            degradation.update((name, market[name]) for name in FAULT_COUNTERS)
        if state.aborted is not None:
            degradation["aborted"] = state.aborted
    hits = after.hits - before.hits
    cost = after.cost - before.cost
    handle.result = QueryResult(
        rows=rows,
        plan=handle.plan,
        hit_count=hits,
        assignment_count=after.assignments - before.assignments,
        total_cost=cost,
        elapsed_seconds=elapsed,
        node_stats=handle.ctx.node_stats,
        marketplace_stats=None
        if market is None
        else MarketplaceSnapshot(
            considerations=market["considerations"],
            refusals=market["refusals"],
            assignments_completed=market["assignments_completed"],
        ),
        pipeline_summary=handle.ctx.pipeline_summary,
        adaptive_summary=None
        if handle.adapt_state is None
        else handle.adapt_state.summary(actual_hits=hits, actual_cost=cost),
        degradation_summary=degradation,
        store_summary=None
        if store is None
        else store_summary_delta(store, before.store, handle.ledger.pricing),
        task_labels=plan_task_labels(handle.plan, handle.catalog),
    )


@dataclass
class SessionStats:
    """Session-level overlap and sharing economics."""

    mode: str
    """``concurrent`` (round-robin over pipelined schedulers) or ``serial``
    (each query to completion in submission order)."""

    queries: int = 0
    completed: int = 0
    failed: int = 0
    epoch: float = 0.0
    makespan_seconds: float = 0.0
    """Virtual span from the session epoch to the last harvested finish —
    what a requester waits for the whole batch."""

    serial_latency_seconds: float = 0.0
    """Sum of the per-query virtual spans — what running the queries one
    after another would have taken."""

    cross_cache_hits: int = 0
    cross_assignments_shared: int = 0
    cost_saved: float = 0.0
    """Dollars the cross-query sharing avoided re-spending."""

    store_summary: dict[str, object] | None = None
    """Persistent-answer-store traffic for the whole run when the session's
    shared cache is a :class:`~repro.hits.store.PersistentAnswerStore`
    (hits/misses, disk reuse, evictions, dollars saved); None otherwise.
    Session-wide rather than per-query: the store is shared, so disk reuse
    belongs to the batch, not to whichever sibling happened to ask first.
    (A query that ran alone also reports its own share in its
    ``QueryResult.store_summary``.)"""

    groups_posted: dict[str, int] = field(default_factory=dict)
    admission_log: list[tuple[str, str | None]] = field(default_factory=list)
    """(query key, group id) per marketplace submission, in admission
    order — the observable record of round-robin fairness."""

    @property
    def overlap_speedup(self) -> float:
        """Serial latency over makespan (1.0 = no overlap won anything)."""
        if self.makespan_seconds <= 0:
            return 1.0
        return self.serial_latency_seconds / self.makespan_seconds


@dataclass
class SessionResult:
    """All queries' outcomes plus the session economics."""

    queries: list[SessionQuery]
    stats: SessionStats

    def __getitem__(self, key: str | int | SessionQuery) -> QueryResult:
        """A query's result by handle, key, or submission index.

        Raises the query's recorded error if it failed.
        """
        handle = self._handle(key)
        if handle.error is not None:
            raise handle.error
        assert handle.result is not None
        return handle.result

    def _handle(self, key: str | int | SessionQuery) -> SessionQuery:
        if isinstance(key, SessionQuery):
            return key
        if isinstance(key, int):
            return self.queries[key]
        # Keys take precedence over labels: a label that happens to equal
        # another query's key must not shadow that query.
        for query in self.queries:
            if query.key == key:
                return query
        for query in self.queries:
            if query.label == key:
                return query
        raise KeyError(key)

    @property
    def results(self) -> dict[str, QueryResult]:
        """Completed queries' results by key."""
        return {q.key: q.result for q in self.queries if q.result is not None}

    @property
    def errors(self) -> dict[str, Exception]:
        """Failed queries' errors by key."""
        return {q.key: q.error for q in self.queries if q.error is not None}

    def explain(self) -> str:
        """Per-query EXPLAIN trees plus the session overlap/sharing footer."""
        lines: list[str] = []
        for query in self.queries:
            lines.append(f"== {query.key} ({query.label})")
            if query.error is not None:
                lines.append(f"  failed: {type(query.error).__name__}: {query.error}")
            elif query.result is not None:
                lines.append(query.result.explain())
                if query.cross_cache_hits:
                    lines.append(
                        f"shared: cross_query_cache_hits={query.cross_cache_hits}"
                        f", assignments_reused={query.cross_assignments_shared}"
                    )
        lines.append(render_session_summary(self.stats))
        return "\n".join(lines)


class EngineSession:
    """Run many queries concurrently over one shared crowd marketplace.

    Typical use::

        market = SimulatedMarketplace(truth, seed=1)
        session = EngineSession(platform=market)
        session.register_table(celebs)
        session.define(TASK_DSL)
        h0 = session.submit("SELECT ...")
        h1 = session.submit("SELECT ...", config=other_config)
        outcome = session.run()
        outcome[h0].rows, outcome[h1].total_cost, outcome.stats.overlap_speedup

    Tables, functions, and tasks registered on the session land in its
    default catalog, shared by every query that does not bring its own.
    ``run(concurrent=False)`` executes the same queries one at a time —
    the baseline the benchmarks compare overlap against; per-query results
    are identical either way (see the module docstring). Sessions are
    one-shot: build a new one for another batch.

    Every query runs the module's one lifecycle (:func:`run_queries`),
    with a fresh ledger, Task Manager, cache view, and selectivity book of
    its own, so a one-query session's result equals a fresh
    :class:`~repro.core.engine.Qurk`'s ``execute`` field for field.

    Concurrency needs a platform that ``overlaps`` its HIT groups; on any
    other platform (a post-and-wait one included) the session runs its
    queries serially, each on the same scheduler with every HIT group
    resolved at submission.
    """

    def __init__(
        self,
        platform: CrowdPlatform | PostAndWaitPlatform,
        config: ExecutionConfig | None = None,
        catalog: Catalog | None = None,
        cache: TaskCache | None = None,
        store: StoreSpec | None = None,
    ) -> None:
        refresh_all()
        self.platform = platform
        self.config = config or ExecutionConfig()
        self.catalog = catalog or Catalog()
        self.store = resolve_store(store, cache)
        """The attached persistent answer store (``None`` when no ``store=``
        was configured or ``REPRO_STORE=0`` ignored it)."""
        # Explicit None test: an *empty* store is falsy (len() == 0) but
        # must still serve as the shared cache.
        self.cache: HITCache = (
            self.store if self.store is not None else (cache or TaskCache())
        )
        self._owners: dict[str, str] = {}
        self.queries: list[SessionQuery] = []
        self._ran = False

    # -- registration (mirrors the Qurk facade) ------------------------

    def register_table(self, table: Table, replace: bool = False) -> None:
        """Make a table queryable in the session's default catalog."""
        self.catalog.register_table(table, replace=replace)

    def register_function(
        self, name: str, fn: Callable[..., object], replace: bool = False
    ) -> None:
        """Register a computer-evaluable scalar function."""
        self.catalog.register_function(name, fn, replace=replace)

    def define(self, dsl_text: str, replace: bool = False) -> list[str]:
        """Parse and register TASK definitions; returns the task names."""
        return register_task_definitions(self.catalog, dsl_text, replace=replace)

    # -- building the batch --------------------------------------------

    def submit(
        self,
        query: str | SelectQuery,
        config: ExecutionConfig | None = None,
        catalog: Catalog | None = None,
        label: str | None = None,
    ) -> SessionQuery:
        """Queue a query for the next :meth:`run`; returns its handle.

        ``config`` / ``catalog`` default to the session's; a per-query
        ``config`` is how one query gets its own ``max_budget``,
        ``assignments``, sort method, etc.
        """
        if self._ran:
            raise ExecutionError("session already ran; sessions are one-shot")
        key = f"q{len(self.queries)}"
        handle = SessionQuery(
            key=key,
            label=label or key,
            query=query,
            catalog=catalog or self.catalog,
            config=config or self.config,
        )
        self.queries.append(handle)
        return handle

    # -- execution ------------------------------------------------------

    def run(self, concurrent: bool = True) -> SessionResult:
        """Execute every submitted query; never raises for per-query
        failures (they land on the handles / ``SessionResult.errors``)."""
        if self._ran:
            raise ExecutionError("session already ran; sessions are one-shot")
        if not self.queries:
            raise PlanError("session has no queries; submit() some first")
        self._ran = True
        platform = ticket_platform(self.platform)
        multi = len(self.queries) > 1
        concurrent = concurrent and multi and platform.overlaps
        stats = SessionStats(
            mode="concurrent" if concurrent else "serial",
            queries=len(self.queries),
            epoch=platform.clock_seconds,
        )
        store_before = (
            store_counters(self.store) if self.store is not None else None
        )

        for handle in self.queries:
            handle.cache_view = TaskCacheView(
                shared=self.cache, owner=handle.key, owners=self._owners
            )
            if platform.overlaps:
                # Single-query sessions stay on the default client stream:
                # that is what makes them bit-identical to a plain engine.
                handle.client = MarketplaceClient(
                    platform,
                    client_id=handle.key if multi else None,
                    on_submit=self._admission_logger(stats, handle.key),
                )
            handle.arm(
                TaskManager(
                    handle.client or platform,
                    ledger=handle.ledger,
                    cache=handle.cache_view,
                ),
                label=handle.key,
            )
        run_queries(self.queries, self.store, concurrent=concurrent)

        stats.completed = sum(1 for h in self.queries if h.result is not None)
        stats.failed = sum(1 for h in self.queries if h.error is not None)
        stats.makespan_seconds = platform.clock_seconds - stats.epoch
        stats.serial_latency_seconds = sum(
            h.result.elapsed_seconds for h in self.queries if h.result is not None
        )
        stats.cross_cache_hits = sum(h.cross_cache_hits for h in self.queries)
        stats.cross_assignments_shared = sum(
            h.cross_assignments_shared for h in self.queries
        )
        pricing = self.queries[0].ledger.pricing
        stats.cost_saved = pricing.cost(stats.cross_assignments_shared)
        if self.store is not None and store_before is not None:
            stats.store_summary = store_summary_delta(
                self.store, store_before, pricing
            )
        stats.groups_posted = {
            h.key: h.client.groups_posted
            for h in self.queries
            if h.client is not None
        }
        return SessionResult(queries=list(self.queries), stats=stats)

    @staticmethod
    def _admission_logger(stats: SessionStats, key: str):
        def log(_client, ticket) -> None:
            stats.admission_log.append((key, ticket.group_id))

        return log
