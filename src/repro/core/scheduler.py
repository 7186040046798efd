"""The event-driven pipelined executor (§2.6).

The paper's Qurk executor "compiles queries into a set of operators which
communicate asynchronously through input queues", so HIT batches from
different operators are outstanding on the marketplace at the same time.
This module reproduces that design *deterministically*: each plan operator
becomes a stepping generator task with a bounded input queue, scheduled by
a single-threaded event loop driven off the marketplace's virtual clock.

How determinism survives pipelining
-----------------------------------
Real threads would make worker draws order-dependent. Here, concurrency is
expressed entirely in **virtual time**:

* every operator task carries a *local clock* — the virtual time up to
  which its inputs and previous HIT rounds have resolved;
* a crowd operator posts each HIT group through
  :meth:`~repro.core.context.QueryContext.post`. The context the
  scheduler hands its crowd phase carries an :class:`OperatorBinding`, so
  the group is submitted as a ticket at the operator's local clock
  (:meth:`~repro.crowd.marketplace.SimulatedMarketplace.submit_hit_group`)
  and the scheduler books it. Groups from different operators — and
  independent groups within one operator, like a join's two
  feature-extraction sides or a sort's per-group batches — therefore
  occupy overlapping virtual intervals;
* the scheduler steps tasks in **post-order plan rank** and gates each
  crowd phase until every lower-rank task has finished, which fixes the
  global *posting order* to the plan's post-order. Since each group's
  dispatch draws from an independent stream keyed by posting order (not
  by clock), overlap changes completion times only — never votes, costs,
  or rows;
* outstanding groups are harvested in virtual-finish-time order
  (:func:`repro.hits.manager.collect_pending` /
  :meth:`~repro.crowd.marketplace.SimulatedMarketplace.harvest`), and the
  shared clock advances to the latest harvested finish — the makespan of
  the overlapped schedule rather than the sum of serial rounds.

Rows flow between operators as chunks through bounded
:class:`OperatorQueue`\\ s: computed operators (scan, computed filter,
limit, crowd-free projections) transform chunk-by-chunk and stall when a
consumer lags (back-pressure); crowd operators drain their queue before
posting, because HIT *merging* (§2.6) batches over an operator's whole
tuple set. Queue occupancy, stalls, and per-operator posting telemetry land
in :class:`~repro.core.context.PipelineStats` for EXPLAIN.

Blocking platforms run the same schedule. A platform whose ``overlaps``
is false (such as a post-and-wait platform behind the Task Manager's
:class:`~repro.hits.manager.BlockingAdapter`) cannot keep groups
outstanding, so each group is submitted at the platform clock and comes
back already resolved: the query's virtual intervals line up end to end,
``peak_outstanding_groups`` is 1, and the makespan equals the serial
latency. Rows, votes, and costs are the same as on an overlapping
platform.

Error paths: a failing crowd phase (budget exceeded, uncompleted HITs
under ``strict_hits``) aborts the query at the posting where a serial run
would abort; sibling groups already submitted are settled first (see
:meth:`PipelineScheduler.settle`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator

from repro.core.context import PipelineStats, QueryContext
from repro.core.executor import (
    computed_filter_rows,
    crowd_filter_rows,
    join_rows,
    project_crowd_calls,
    project_rows,
    scan_rows,
)
from repro.core.plan import (
    AdaptiveFilterNode,
    ComputedFilterNode,
    CrowdPredicateNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.core.sort_exec import execute_sort
from repro.errors import ExecutionError
from repro.hits.manager import PendingBatch
from repro.relational.rows import Row
from repro.tasks.registry import DispatchTable


# ---------------------------------------------------------------------------
# Effects yielded by operator generators
# ---------------------------------------------------------------------------


class _Need:
    """Ask the scheduler for the next chunk of one input port."""

    __slots__ = ("port",)

    def __init__(self, port: int) -> None:
        self.port = port


class _Emit:
    """Push a chunk downstream (stalls while the output queue is full)."""

    __slots__ = ("rows", "time")

    def __init__(self, rows: list[Row], time: float) -> None:
        self.rows = rows
        self.time = time


class _Gate:
    """Hold a crowd phase until every lower-rank task finished posting."""

    __slots__ = ()


_GATE = _Gate()


# ---------------------------------------------------------------------------
# Queues
# ---------------------------------------------------------------------------


class OperatorQueue:
    """A bounded chunk queue between a producer and one consumer.

    ``capacity`` is in chunks; ``None`` means unbounded (the root output the
    scheduler itself drains). Each entry is ``(rows, avail_time)`` — the
    virtual time at which the producer made the chunk available.
    """

    __slots__ = ("capacity", "items", "closed", "peak", "total_chunks")

    def __init__(self, capacity: int | None) -> None:
        self.capacity = capacity
        self.items: list[tuple[list[Row], float]] = []
        self.closed = False
        self.peak = 0
        self.total_chunks = 0

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, rows: list[Row], time: float) -> None:
        if self.closed:
            raise ExecutionError("emit into a closed operator queue")
        self.items.append((rows, time))
        self.total_chunks += 1
        if len(self.items) > self.peak:
            self.peak = len(self.items)

    def get(self) -> tuple[list[Row], float] | None:
        """Next chunk, or None when drained-and-closed; None-not-ready is
        signalled by the caller checking :meth:`ready` first."""
        if self.items:
            return self.items.pop(0)
        return None

    def ready(self) -> bool:
        """Whether a consumer's ``get`` (or end-of-stream) can resolve now."""
        return bool(self.items) or self.closed

    def close(self) -> None:
        self.closed = True


# ---------------------------------------------------------------------------
# Operator tasks
# ---------------------------------------------------------------------------


class OperatorTask:
    """One plan operator running as a stepping generator."""

    def __init__(
        self,
        node: PlanNode,
        rank: int,
        depth: int,
        inputs: list["OperatorTask"],
        out_queue: OperatorQueue,
        epoch: float,
    ) -> None:
        self.node = node
        self.rank = rank
        self.depth = depth
        self.inputs = inputs
        self.out_queue = out_queue
        self.local_time = epoch
        self.gen: Iterator[object] | None = None
        self.pending: object | None = None
        self.started = False
        self.finished = False
        self.emit_blocked = False
        self.pstats = PipelineStats(
            stage=rank,
            depth=depth,
            queue_capacity=out_queue.capacity or 0,
            started_at=epoch,
            finished_at=epoch,
        )
        self.open_batches = 0

    def advance_to(self, time: float) -> None:
        if time > self.local_time:
            self.local_time = time


class OperatorBinding:
    """An operator's seat on the one posting path, :meth:`QueryContext.post`.

    The scheduler hands each crowd phase a context carrying its operator's
    binding: groups go out at the operator's local clock (or, on a
    platform that does not overlap, resolved at the platform clock), and the
    scheduler books each one so it can count the query's outstanding
    groups and in-flight assignments and advance the operator's clock when
    the group is harvested.
    """

    __slots__ = ("_sched", "_task")

    def __init__(self, sched: "PipelineScheduler", task: OperatorTask) -> None:
        self._sched = sched
        self._task = task

    @property
    def post_time(self) -> float | None:
        """The operator's local clock; None on a platform that does not
        overlap, which resolves each group at its own clock."""
        overlaps = self._sched.ctx.manager.platform.overlaps
        return self._task.local_time if overlaps else None

    @property
    def inflight_assignments(self) -> int:
        """Posted-but-unharvested assignments, scheduler-wide."""
        return self._sched.inflight_assignments

    def book(self, pending: PendingBatch) -> None:
        """Record a posted group with the scheduler."""
        self._sched.note_post(self._task, pending)


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


PIPELINE_GENERATORS = DispatchTable("pipelined plan-node generator")
"""Pipelined generator factories keyed by ``PlanNode.kind``.

Each handler takes ``(scheduler, task, node)`` and returns the operator's
stepping generator, usually wrapping an operator body from
:mod:`repro.core.executor`. Out-of-tree node kinds register here without
engine edits. Their crowd work goes through ``ctx.post`` on the context
the scheduler hands them: a post straight through ``ctx.manager``
bypasses the operator's clock and the in-flight budget count.
"""


class PipelineScheduler:
    """Deterministic event loop over operator tasks and bounded queues."""

    def __init__(self, root: PlanNode, ctx: QueryContext) -> None:
        self.ctx = ctx
        self.epoch = ctx.manager.platform.clock_seconds
        self.tasks: list[OperatorTask] = []
        self._groups_posted = 0
        self._peak_outstanding = 0
        self._serial_latency = 0.0
        self._last_finish = self.epoch
        self._open: dict[int, PendingBatch] = {}
        self._results: list[Row] = []
        self._prepared = False
        self.root_task = self._build(root)

    # -- construction --------------------------------------------------

    def _build(self, node: PlanNode) -> OperatorTask:
        """Post-order construction: a task's rank is its posting turn."""
        children = [self._build(child) for child in node.inputs]
        depth = 1 + max((child.depth for child in children), default=0)
        task = OperatorTask(
            node,
            rank=len(self.tasks),
            depth=depth,
            inputs=children,
            out_queue=OperatorQueue(self.ctx.config.pipeline_queue_chunks),
            epoch=self.epoch,
        )
        self.tasks.append(task)
        return task

    def _generator(self, task: OperatorTask):
        node = task.node
        factory = PIPELINE_GENERATORS.lookup(node.kind)
        if factory is None:
            raise ExecutionError(f"no executor for plan node {type(node).__name__}")
        return factory(self, task, node)

    def _operator_ctx(self, task: OperatorTask) -> QueryContext:
        """The operator's view of the context: posts ride its local clock."""
        return replace(self.ctx, binding=OperatorBinding(self, task))

    # -- generators ----------------------------------------------------

    def _chunks(self, rows: list[Row]) -> Iterator[list[Row]]:
        size = self.ctx.config.pipeline_chunk_size
        for start in range(0, len(rows), size):
            yield rows[start : start + size]

    def _scan_gen(self, task: OperatorTask, node: ScanNode, ctx: QueryContext):
        rows = scan_rows(node, ctx)
        for chunk in self._chunks(rows):
            yield _Emit(chunk, task.local_time)

    def _stream_gen(self, task: OperatorTask, apply: Callable[[list[Row]], list[Row]]):
        """Chunk-at-a-time transform for computed (crowd-free) operators."""
        while True:
            got = yield _Need(0)
            if got is None:
                break
            rows, time = got
            task.advance_to(time)
            out = apply(rows)
            if out:
                yield _Emit(out, task.local_time)

    def _limit_gen(self, task: OperatorTask, node: LimitNode, ctx: QueryContext):
        # Streams, but keeps draining after the limit fills: every
        # upstream task must run to completion, and rows_in counts the
        # whole input.
        stats = ctx.stats_for(node)
        emitted = 0
        while True:
            got = yield _Need(0)
            if got is None:
                break
            rows, time = got
            task.advance_to(time)
            stats.rows_in += len(rows)
            take = rows[: max(0, node.count - emitted)]
            emitted += len(take)
            stats.rows_out += len(take)
            if take:
                yield _Emit(take, task.local_time)

    def _materialize_gen(
        self,
        task: OperatorTask,
        run: Callable[[list[Row], QueryContext], list[Row]],
    ):
        """Drain the input, pass the crowd gate, run the phase, emit."""
        rows: list[Row] = []
        while True:
            got = yield _Need(0)
            if got is None:
                break
            rows.extend(got[0])
            task.advance_to(got[1])
        yield _GATE
        out = run(rows, self._operator_ctx(task))
        for chunk in self._chunks(out):
            yield _Emit(chunk, task.local_time)

    def _adaptive_gen(self, task: OperatorTask, node: AdaptiveFilterNode):
        """The fused crowd-conjunct chain: one crowd round per step.

        Drains its input and passes the crowd gate like any materialising
        crowd operator, then drives the estimate-observe-replan loop
        (:class:`~repro.core.adaptive.AdaptiveChainRun`) one posting round
        at a time, yielding between rounds — these are the re-plan points
        between steppable scheduler rounds, so under a multi-query session
        sibling queries get admission turns while this chain re-orders its
        remaining conjuncts around fresh observations.
        """
        from repro.core.adaptive import AdaptiveChainRun

        rows: list[Row] = []
        while True:
            got = yield _Need(0)
            if got is None:
                break
            rows.extend(got[0])
            task.advance_to(got[1])
        yield _GATE
        run = AdaptiveChainRun(node, rows, self._operator_ctx(task))
        while run.step():
            # Re-plan point: the gate is already open (lower ranks have
            # finished), so this costs one scheduler effect, not a stall.
            yield _GATE
        out = run.finish()
        for chunk in self._chunks(out):
            yield _Emit(chunk, task.local_time)

    def _join_gen(self, task: OperatorTask, node: JoinNode):
        left: list[Row] = []
        while True:
            got = yield _Need(0)
            if got is None:
                break
            left.extend(got[0])
            task.advance_to(got[1])
        right: list[Row] = []
        while True:
            got = yield _Need(1)
            if got is None:
                break
            right.extend(got[0])
            task.advance_to(got[1])
        yield _GATE
        out = join_rows(node, left, right, self._operator_ctx(task))
        for chunk in self._chunks(out):
            yield _Emit(chunk, task.local_time)

    # -- telemetry hooks ----------------------------------------------

    @property
    def inflight_assignments(self) -> int:
        """Assignments of posted-but-unharvested groups: what the ledger
        will charge once they are collected."""
        return sum(pending.inflight_assignments for pending in self._open.values())

    def note_post(self, task: OperatorTask, pending: PendingBatch) -> None:
        if pending.posted:
            self._open[id(pending)] = pending
            self._groups_posted += 1
            self._peak_outstanding = max(self._peak_outstanding, len(self._open))
            task.open_batches += 1
            task.pstats.groups_posted += 1
            task.pstats.peak_outstanding = max(
                task.pstats.peak_outstanding, task.open_batches
            )
        pending.on_harvest(lambda batch: self.note_harvest(task, batch))

    def note_harvest(self, task: OperatorTask, pending: PendingBatch) -> None:
        task.advance_to(pending.finish_time)
        if not pending.posted:
            return
        del self._open[id(pending)]
        task.open_batches -= 1
        self._serial_latency += max(0.0, pending.finish_time - pending.post_time)
        if pending.finish_time > self._last_finish:
            self._last_finish = pending.finish_time

    # -- the event loop -------------------------------------------------

    def prepare(self) -> None:
        """Arm the operator generators; call once before stepping.

        Split from :meth:`run` so the session's driver
        (:mod:`repro.core.session`) can step several queries' schedulers
        round-robin through :meth:`step_once`.
        """
        if self._prepared:
            return
        self._prepared = True
        for task in self.tasks:
            task.gen = self._generator(task)
            self.ctx.stats_for(task.node).pipeline = task.pstats
        # The scheduler itself drains the root, so its queue is unbounded.
        self.root_task.out_queue.capacity = None
        self.root_task.pstats.queue_capacity = 0

    @property
    def done(self) -> bool:
        """Whether every operator task has run to completion."""
        return all(task.finished for task in self.tasks)

    def step_once(self) -> None:
        """Advance the lowest-rank steppable task by one effect.

        The one stepping rule, and the session's round-robin admission
        quantum: one effect (one chunk moved, one crowd phase run, one gate
        passed) per call, so no query can monopolise the loop. Determinism
        does not depend on the quantum: crowd phases are rank-gated, so the
        posting order is the same however other queries' steps interleave.
        Raises :class:`ExecutionError` when the query is not done but no
        task can step — nothing outside the query could unblock it.
        """
        for task in self.tasks:
            if not task.finished and self._try_step(task):
                self._drain_root()
                return
        if not self.done:
            stuck = [
                f"{type(t.node).__name__}(rank {t.rank}, "
                f"waiting on {type(t.pending).__name__})"
                for t in self.tasks
                if not t.finished
            ]
            raise ExecutionError(
                "pipeline scheduler deadlock; blocked operators: " + ", ".join(stuck)
            )

    def _drain_root(self) -> None:
        while self.root_task.out_queue.items:
            self._results.extend(self.root_task.out_queue.get()[0])

    def finish(self) -> list[Row]:
        """Record the whole-query pipeline summary and return the rows.

        ``makespan_seconds`` is the span from the query's epoch to *its
        own* latest harvested finish — not the shared clock, which under a
        multi-query session also moves on other queries' harvests.
        """
        self.ctx.pipeline_summary = {
            "stages": float(len(self.tasks)),
            "groups_posted": float(self._groups_posted),
            "peak_outstanding_groups": float(self._peak_outstanding),
            "makespan_seconds": self._last_finish - self.epoch,
            "serial_latency_seconds": self._serial_latency,
        }
        return self._results

    def run(self) -> list[Row]:
        """Run the query alone: :meth:`step_once` until every task is done."""
        self.prepare()
        try:
            while not self.done:
                self.step_once()
        except BaseException:
            self.settle()
            raise
        return self.finish()

    def settle(self) -> None:
        """Harvest every posted-but-uncollected group after a failed step.

        The crowd already did (and must be paid for) this work — on a live
        marketplace the money is committed at posting. Settling charges
        the ledger and fills the cache exactly as a blocking platform's
        run would have before reaching the aborting call, keeping the
        error-path accounting identical on both kinds of platform.
        Secondary failures (e.g. a sibling group's own strict-HIT error)
        are swallowed; the original abort propagates.
        """
        for pending in list(self._open.values()):
            try:
                pending.result()
            # repro-lint: disable=RL010 -- settle deliberately absorbs secondary failures so the original abort propagates (see docstring)
            except Exception:
                pass

    def _try_step(self, task: OperatorTask) -> bool:
        """Advance a task through one satisfiable effect; False if blocked."""
        if not task.started:
            task.started = True
            self._advance(task, first=True)
            return True
        effect = task.pending
        if isinstance(effect, _Need):
            queue = task.inputs[effect.port].out_queue
            if not queue.ready():
                return False
            self._advance(task, value=queue.get())
            return True
        if isinstance(effect, _Emit):
            if task.out_queue.full:
                if not task.emit_blocked:
                    task.emit_blocked = True
                    task.pstats.emit_stalls += 1
                return False
            task.emit_blocked = False
            task.out_queue.put(effect.rows, effect.time)
            task.pstats.chunks_emitted += 1
            self._advance(task)
            return True
        if isinstance(effect, _Gate):
            if any(not t.finished for t in self.tasks[: task.rank]):
                return False
            # The crowd phase starts now, at the operator's input-ready time.
            task.pstats.started_at = task.local_time
            self._advance(task)
            return True
        raise ExecutionError(f"unknown scheduler effect {effect!r}")

    def _advance(
        self, task: OperatorTask, value: object = None, first: bool = False
    ) -> None:
        assert task.gen is not None
        try:
            task.pending = next(task.gen) if first else task.gen.send(value)
        except StopIteration:
            task.finished = True
            task.out_queue.close()
            task.pstats.finished_at = task.local_time
            task.pstats.queue_peak = task.out_queue.peak
        else:
            if task.out_queue.peak > task.pstats.queue_peak:
                task.pstats.queue_peak = task.out_queue.peak


# ---------------------------------------------------------------------------
# Builtin node-kind registrations (the paper's operators)
# ---------------------------------------------------------------------------


def _gen_scan(sched: PipelineScheduler, task: OperatorTask, node: ScanNode):
    return sched._scan_gen(task, node, sched.ctx)


def _gen_computed_filter(
    sched: PipelineScheduler, task: OperatorTask, node: ComputedFilterNode
):
    ctx = sched.ctx
    return sched._stream_gen(task, lambda rows: computed_filter_rows(node, rows, ctx))


def _gen_limit(sched: PipelineScheduler, task: OperatorTask, node: LimitNode):
    return sched._limit_gen(task, node, sched.ctx)


def _gen_project(sched: PipelineScheduler, task: OperatorTask, node: ProjectNode):
    ctx = sched.ctx
    if project_crowd_calls(node, ctx):
        return sched._materialize_gen(task, lambda rows, c: project_rows(node, rows, c))
    return sched._stream_gen(task, lambda rows: project_rows(node, rows, ctx))


def _gen_crowd_filter(
    sched: PipelineScheduler, task: OperatorTask, node: CrowdPredicateNode
):
    return sched._materialize_gen(task, lambda rows, c: crowd_filter_rows(node, rows, c))


def _gen_adaptive_filter(
    sched: PipelineScheduler, task: OperatorTask, node: AdaptiveFilterNode
):
    return sched._adaptive_gen(task, node)


def _gen_sort(sched: PipelineScheduler, task: OperatorTask, node: SortNode):
    return sched._materialize_gen(task, lambda rows, c: execute_sort(node, rows, c))


def _gen_join(sched: PipelineScheduler, task: OperatorTask, node: JoinNode):
    return sched._join_gen(task, node)


PIPELINE_GENERATORS.register(ScanNode.kind, _gen_scan)
PIPELINE_GENERATORS.register(ComputedFilterNode.kind, _gen_computed_filter)
PIPELINE_GENERATORS.register(LimitNode.kind, _gen_limit)
PIPELINE_GENERATORS.register(ProjectNode.kind, _gen_project)
PIPELINE_GENERATORS.register(CrowdPredicateNode.kind, _gen_crowd_filter)
PIPELINE_GENERATORS.register(AdaptiveFilterNode.kind, _gen_adaptive_filter)
PIPELINE_GENERATORS.register(SortNode.kind, _gen_sort)
PIPELINE_GENERATORS.register(JoinNode.kind, _gen_join)
