"""The simulated crowdsourcing marketplace.

:class:`SimulatedMarketplace` implements the platform protocol the Task
Manager posts to. It is the paper's Mechanical Turk substitute: HIT groups
are posted, workers from a :class:`~repro.crowd.pool.WorkerPool` consider and
complete assignments on a virtual clock, answers come from the behaviour
models against a :class:`~repro.crowd.truth.GroundTruth` oracle, and the
latency model produces completion-time distributions with the paper's
qualitative shape.

The marketplace serves two posting styles:

* **blocking** — :meth:`SimulatedMarketplace.post_hit_group` posts a group
  and advances the shared virtual clock to its completion before returning
  (a blocking platform's serial timeline);
* **multi-client** — :meth:`SimulatedMarketplace.submit_hit_group` posts a
  group at an explicit virtual ``post_time`` and returns a
  :class:`HITGroupTicket` without touching the shared clock, so several
  operators can have HIT groups outstanding over overlapping virtual-time
  intervals; :meth:`SimulatedMarketplace.harvest` (or
  :meth:`SimulatedMarketplace.harvest_next`, which picks the earliest
  finisher) collects a ticket and folds its completion time into the clock.
  This is what the pipelined executor (:mod:`repro.core.scheduler`) drives.

Everything is deterministic given the construction seed. Each group's
dispatch draws from an independent child stream derived from the group id
and the running ``hits_posted`` counter — not from the shared clock — and
all gap/deadline arithmetic is relative to the group's ``post_time``, so a
group's assignments are identical whether it is posted blocking or
outstanding. ``tests/test_determinism_trace.py`` pins the dispatch loop's
draw stream against a golden trace.

Named clients
-------------
A multi-query session (:class:`~repro.core.session.EngineSession`) runs
several queries against one marketplace. Each query posts through a
:class:`MarketplaceClient` facade carrying a ``client_id``; the marketplace
then derives that client's group streams from a per-client child of the
construction seed and a per-client posted-HITs counter, so one client's
draws depend only on *its own* posting order — never on how the session
interleaved the clients. That is what makes a query's votes independent
of the schedule: identical for any interleaving that has the query post
the same groups in the same order (see :mod:`repro.core.session` for the
one caveat, cross-query cache sharing, which can change *what* a query
posts). The default
client (``client_id=None``) keeps the original seed-global stream, which is
why single-query engines reproduce the pre-session golden traces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.crowd.behavior import answer_hit, spam_answer_hit
from repro.crowd.faults import FaultPlan, GroupFaultRecord
from repro.crowd.latency import LatencyConfig, LatencyModel, TimeOfDay
from repro.crowd.pool import PoolConfig, WorkerPool
from repro.crowd.truth import GroundTruth
from repro.errors import MarketplaceError, TransientMarketplaceError
from repro.hits.hit import HIT, Assignment
from repro.util import resilience, vector
from repro.util.rng import RandomSource, child_seed_from_material


@dataclass
class MarketplaceStats:
    """Aggregate counters exposed for experiments and EXPLAIN output."""

    hits_posted: int = 0
    assignments_completed: int = 0
    considerations: int = 0
    refusals: int = 0
    uncompleted_hits: int = 0
    groups_submitted: int = 0
    peak_outstanding_groups: int = 0
    abandoned_assignments: int = 0
    expired_slots: int = 0
    spam_assignments: int = 0
    straggler_assignments: int = 0
    transient_errors: int = 0
    worker_assignment_counts: dict[str, int] = field(default_factory=dict)

    def record_work(self, worker_id: str) -> None:
        """Count one completed assignment for a worker."""
        self.assignments_completed += 1
        self.worker_assignment_counts[worker_id] = (
            self.worker_assignment_counts.get(worker_id, 0) + 1
        )

    def uncount_work(self, worker_id: str) -> None:
        """Reverse :meth:`record_work` for an assignment a fault removed."""
        self.assignments_completed -= 1
        remaining = self.worker_assignment_counts.get(worker_id, 0) - 1
        if remaining > 0:
            self.worker_assignment_counts[worker_id] = remaining
        else:
            self.worker_assignment_counts.pop(worker_id, None)

    @property
    def considerations_per_assignment(self) -> float:
        """Worker considerations burned per completed assignment.

        1.0 means every consideration converted into work; higher values
        measure the refusal-loop overhead (candidates declining the batch
        size, or re-drawing workers who already did the HIT). 0.0 when
        nothing completed.
        """
        if self.assignments_completed == 0:
            return 0.0
        return self.considerations / self.assignments_completed


@dataclass(frozen=True)
class HITGroupTicket:
    """Handle for a HIT group that is outstanding on the marketplace.

    The simulation resolves a group's assignments eagerly at submission
    (they depend only on the group's independent random stream, never on
    what else is outstanding), but the results stay embargoed behind this
    ticket until :meth:`SimulatedMarketplace.harvest` collects them — which
    is also the moment the group's completion folds into the shared virtual
    clock. ``finish_time`` is the virtual time the group resolved: the last
    submission when fully completed, or the instant the marketplace gave up
    on it (deadline / sustained refusals) when HITs were left uncompleted.
    """

    ticket_id: int
    group_id: str | None
    post_time: float
    finish_time: float
    assignments: tuple[Assignment, ...]
    incomplete_hit_ids: frozenset[str]
    faults: GroupFaultRecord | None = None
    """What the fault overlay did to this group; ``None`` when no faults
    were injected (no plan, zero rates, or ``REPRO_RESILIENCE=0``)."""


class SimulatedMarketplace:
    """A deterministic MTurk stand-in satisfying the platform protocol."""

    def __init__(
        self,
        truth: GroundTruth,
        pool: WorkerPool | None = None,
        seed: int = 0,
        time_of_day: TimeOfDay | str = TimeOfDay.MORNING,
        latency: LatencyModel | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.truth = truth
        self.pool = pool or WorkerPool.build(PoolConfig(), seed=seed)
        self.latency = latency or LatencyModel(LatencyConfig())
        if isinstance(time_of_day, str):
            time_of_day = TimeOfDay(time_of_day)
        self.time_of_day = time_of_day
        self.faults = faults
        self.stats = MarketplaceStats()
        self._rng = RandomSource(seed).child("marketplace")
        # Child derivation is seed arithmetic, not a draw: creating this
        # stream perturbs nothing even when no plan is configured.
        self._transient_rng = self._rng.child("transient")
        self._suppress_transient = False
        self._workers_by_id: dict[str, object] | None = None
        self._clock = 0.0
        self._assignment_counter = 0
        self._ticket_counter = 0
        self._outstanding: dict[int, HITGroupTicket] = {}
        self._client_rngs: dict[str, RandomSource] = {}
        self._client_hits_posted: dict[str, int] = {}

    @property
    def clock_seconds(self) -> float:
        """Current virtual time (seconds since the simulation started)."""
        return self._clock

    def advance_clock(self, seconds: float) -> None:
        """Manually advance the virtual clock (e.g. between trials)."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._clock += seconds

    # ------------------------------------------------------------------

    def post_hit_group(
        self, hits: Sequence[HIT], group_id: str | None = None
    ) -> list[Assignment]:
        """Post HITs as one group; returns completed assignments.

        Blocks (in virtual time) until every assignment completes, the
        posting deadline passes, or the marketplace concludes nobody will
        ever take the work (sustained refusals — oversized batches).
        Equivalent to :meth:`submit_hit_group` at the current clock followed
        by an immediate :meth:`harvest`. Injected transient errors strike
        only the submit half here: the harvest half skips injection so a
        retried blocking post never double-submits the group.
        """
        if not hits:
            return []
        ticket = self.submit_hit_group(hits, group_id=group_id)
        # Harvest through the public method (subclasses hook it to observe
        # completions) but with injection suppressed: the submit above
        # already committed state, so a retried blocking post must never
        # double-submit the group.
        self._suppress_transient = True
        try:
            return self.harvest(ticket)
        finally:
            self._suppress_transient = False

    def submit_hit_group(
        self,
        hits: Sequence[HIT],
        group_id: str | None = None,
        post_time: float | None = None,
        client_id: str | None = None,
    ) -> HITGroupTicket:
        """Post HITs as one outstanding group at ``post_time``.

        The shared clock does not move; the group's workers consider and
        complete assignments over the virtual interval ``[post_time,
        finish_time]`` recorded on the returned ticket. Several tickets may
        be outstanding at once with overlapping intervals — that is the
        pipelined executor's whole point. Dispatch draws come from a child
        stream keyed by the group id and the running ``hits_posted``
        counter, so a group's assignments depend on *posting order*, never
        on what else is outstanding or on ``post_time`` (timestamps aside).

        With a ``client_id`` (session clients, see the module docstring)
        the stream root is the client's own child of the seed and the
        counter is the client's own posted-HITs count, making the draws a
        function of that client's posting order alone.
        """
        self._maybe_transient("submit")
        if post_time is None:
            post_time = self._clock
        self.stats.hits_posted += len(hits)
        self.stats.groups_submitted += 1
        if client_id is None:
            stream_root = self._rng
            counter = self.stats.hits_posted
        else:
            stream_root = self._client_rngs.get(client_id)
            if stream_root is None:
                stream_root = self._client_rngs[client_id] = self._rng.child(
                    "client", client_id
                )
            counter = self._client_hits_posted.get(client_id, 0) + len(hits)
            self._client_hits_posted[client_id] = counter
        rng = stream_root.child("group", group_id or "anon", counter)
        trial_factor = self.latency.trial_rate_factor(rng.child("trial"))

        if vector.enabled():
            # Second determinism domain: the numpy kernel draws from its
            # own PCG64 stream derived from this group's seed, so it never
            # consumes (or needs) the scalar shuffle/dispatch draws.
            from repro.crowd.vector import dispatch_vector

            completed, now, incomplete_hits = dispatch_vector(
                self, hits, rng, post_time, trial_factor
            )
        else:
            # One (hit, sequence) slot per requested assignment, in a
            # seeded shuffle; shuffle draws depend only on the length.
            pending = [
                (hit, sequence)
                for hit in hits
                for sequence in range(hit.assignments_requested)
            ]
            completed, now, incomplete_hits = self._dispatch(
                hits, rng.shuffled(pending), rng, post_time, trial_factor
            )

        fault_record: GroupFaultRecord | None = None
        plan = self.faults
        if plan is not None and plan.disrupts_dispatch and resilience.enabled():
            completed, incomplete_hits, fault_record = self._apply_faults(
                hits, completed, incomplete_hits, post_time, rng
            )

        self.stats.uncompleted_hits += len(incomplete_hits)
        if incomplete_hits:
            # The posting sat (partially) unclaimed until we gave up on it.
            finish_time = max(
                now, max((a.submit_time for a in completed), default=post_time)
            )
        elif completed:
            finish_time = max(assignment.submit_time for assignment in completed)
        else:
            finish_time = now
        self._ticket_counter += 1
        ticket = HITGroupTicket(
            ticket_id=self._ticket_counter,
            group_id=group_id,
            post_time=post_time,
            finish_time=finish_time,
            assignments=tuple(completed),
            incomplete_hit_ids=frozenset(incomplete_hits),
            faults=fault_record,
        )
        self._outstanding[ticket.ticket_id] = ticket
        self.stats.peak_outstanding_groups = max(
            self.stats.peak_outstanding_groups, len(self._outstanding)
        )
        return ticket

    def harvest(self, ticket: HITGroupTicket) -> list[Assignment]:
        """Collect an outstanding group's assignments.

        Folds the group's completion into the shared clock: the clock only
        ever moves forward, to the latest harvested finish time — for a
        serial chain of groups that is the sum of their durations, for
        overlapped groups it is the makespan.

        With an active fault plan this call may raise
        :class:`~repro.errors.TransientMarketplaceError` *before* touching
        the ticket, which stays outstanding — retrying the harvest is safe.
        """
        self._maybe_transient("harvest")
        return self._harvest(ticket)

    def _harvest(self, ticket: HITGroupTicket) -> list[Assignment]:
        """:meth:`harvest` minus fault injection (internal retry-safe path)."""
        if self._outstanding.pop(ticket.ticket_id, None) is None:
            raise MarketplaceError(
                f"ticket {ticket.ticket_id} (group {ticket.group_id!r}) is not "
                "outstanding — already harvested?"
            )
        if ticket.finish_time > self._clock:
            self._clock = ticket.finish_time
        return list(ticket.assignments)

    def harvest_next(self) -> HITGroupTicket | None:
        """The outstanding ticket with the earliest virtual finish time.

        Removes it from the outstanding set and advances the clock like
        :meth:`harvest`; returns None when nothing is outstanding. Ties
        break by submission order. The marketplace-level primitive for
        consuming completions in virtual-time order; operators drive the
        same rule through :func:`repro.hits.manager.collect_pending`,
        which sorts its specific pending batches by finish time before
        harvesting each.
        """
        if not self._outstanding:
            return None
        ticket = min(
            self._outstanding.values(),
            key=lambda t: (t.finish_time, t.ticket_id),
        )
        self.harvest(ticket)
        return ticket

    @property
    def outstanding_count(self) -> int:
        """Number of submitted-but-unharvested HIT groups."""
        return len(self._outstanding)

    # ------------------------------------------------------------------
    # Fault injection

    def _maybe_transient(self, operation: str) -> None:
        """Raise a simulated transient platform failure, maybe.

        Fires before any state changes, so the failed call is replayable:
        a retried submit reposts nothing twice and a retried harvest finds
        its ticket still outstanding. Draws come from a dedicated serial
        stream (never the group streams), consumed only when the rate is
        non-zero and the toggle is on — zero-rate plans and
        ``REPRO_RESILIENCE=0`` touch nothing.
        """
        if self._suppress_transient:
            return
        plan = self.faults
        if plan is None or plan.transient_error_rate <= 0 or not resilience.enabled():
            return
        if self._transient_rng.chance(plan.transient_error_rate):
            self.stats.transient_errors += 1
            raise TransientMarketplaceError(
                f"simulated transient platform failure during {operation}"
            )

    def _apply_faults(
        self,
        hits: Sequence[HIT],
        completed: list[Assignment],
        incomplete_hits: set[str],
        post_time: float,
        rng: RandomSource,
    ) -> tuple[list[Assignment], set[str], GroupFaultRecord]:
        """Overlay the fault plan on a group's dispatched assignments.

        Runs *after* dispatch so the dispatch loop stays untouched; all
        draws come from a child of the group's stream seed, so the overlay
        is identical whether the group is posted blocking or outstanding
        (group streams are keyed by posting order). Per-rate guards keep zero rates from consuming any
        draw.
        """
        plan = self.faults
        frng = RandomSource(child_seed_from_material(f"{rng.seed}:faults"))
        lifetime: float | None = None
        if plan.expiration_rate > 0 and frng.chance(plan.expiration_rate):
            # The lifetime is a fraction of the group's own accept window
            # (not the posting deadline — accepts cluster near the post, so
            # a deadline-relative cutoff would never trip): slots accepted
            # after the cutoff find the group already expired.
            span = (
                max((a.accept_time for a in completed), default=post_time)
                - post_time
            )
            lifetime = post_time + span * plan.expiration_lifetime_fraction
        hits_by_id = {hit.hit_id: hit for hit in hits}
        survivors: list[Assignment] = []
        incomplete = set(incomplete_hits)
        stats = self.stats
        abandoned = expired = stragglers = spammed = 0
        for assignment in completed:
            if lifetime is not None and assignment.accept_time > lifetime:
                # The group's lifetime lapsed before this slot was accepted.
                expired += 1
                stats.expired_slots += 1
                stats.uncount_work(assignment.worker_id)
                incomplete.add(assignment.hit_id)
                continue
            if plan.abandonment_rate > 0 and frng.chance(plan.abandonment_rate):
                abandoned += 1
                stats.abandoned_assignments += 1
                stats.uncount_work(assignment.worker_id)
                incomplete.add(assignment.hit_id)
                continue
            if plan.spam_rate > 0 and frng.chance(plan.spam_rate):
                spammed += 1
                stats.spam_assignments += 1
                worker = self._worker_profile(assignment.worker_id)
                answers = spam_answer_hit(
                    worker,
                    hits_by_id[assignment.hit_id],
                    self.truth,
                    frng.child("spam", assignment.assignment_id),
                )
                assignment = assignment._replace(answers=answers)
            if plan.straggler_rate > 0 and frng.chance(plan.straggler_rate):
                stragglers += 1
                stats.straggler_assignments += 1
                work = assignment.submit_time - assignment.accept_time
                assignment = assignment._replace(
                    submit_time=assignment.accept_time + work * plan.straggler_factor
                )
            survivors.append(assignment)
        record = GroupFaultRecord(
            abandoned=abandoned,
            expired_slots=expired,
            stragglers=stragglers,
            spammed=spammed,
        )
        return survivors, incomplete, record

    def _worker_profile(self, worker_id: str):
        """Worker lookup for the spam overlay (lazy id → profile map)."""
        table = self._workers_by_id
        if table is None:
            table = self._workers_by_id = {
                worker.worker_id: worker for worker in self.pool.workers
            }
        return table[worker_id]

    def _dispatch(
        self,
        hits: Sequence[HIT],
        pending: list[tuple[HIT, int]],
        rng: RandomSource,
        post_time: float,
        trial_factor: float,
    ) -> tuple[list[Assignment], float, set[str]]:
        """Dispatch one group's shuffled slots to workers on the virtual clock.

        Each consideration draws an exponential gap at the current pickup
        rate (from :meth:`LatencyModel.pickup_rate_table`), a uniform slot
        index into the remaining slots, a candidate worker, and an
        acceptance draw. An accepted slot is popped, its work time drawn
        (log-normal around effort × speed), and its answers generated from
        a per-assignment child stream. The loop stops when every slot is
        taken, the posting deadline passes, or too many considerations in
        a row refuse. Draws are taken straight from the group's
        ``random.Random`` stream, bypassing the wrapper methods; the
        sequence is what the golden trace pins. Returns the completed
        assignments, the time the loop stopped, and the ids of HITs left
        short.
        """
        total = len(pending)
        completed: list[Assignment] = []
        workers_on_hit: dict[str, set[str]] = {hit.hit_id: set() for hit in hits}
        deadline = post_time + self.latency.deadline_seconds
        latency_config = self.latency.config
        max_refusals = latency_config.max_consecutive_refusals
        work_overhead = latency_config.work_overhead_seconds
        work_sigma = latency_config.work_time_sigma
        rates = self.latency.pickup_rate_table(total, self.time_of_day, trial_factor)
        raw = rng.raw
        raw_random = raw.random
        # randint(0, n-1) routes through randrange(n); calling randrange
        # directly consumes the same getrandbits draws.
        raw_randrange = raw.randrange
        raw_expovariate = raw.expovariate
        raw_lognormvariate = raw.lognormvariate
        pop = pending.pop
        pick_candidate = self.pool.pick_candidate
        truth = self.truth
        stats = self.stats
        record_work = stats.record_work
        # One reused child source, re-seeded per assignment with the same
        # derivation rng.child("answers", ...) would use.
        child_rng = RandomSource(0)
        reseed = child_rng.reseed
        seed_prefix = f"{rng.seed}:answers:"
        counter = self._assignment_counter
        considerations = 0
        refusals = 0
        consecutive_refusals = 0
        alive = total
        now = post_time

        while alive:
            now += raw_expovariate(rates[alive])
            if now > deadline:
                break
            if consecutive_refusals >= max_refusals:
                break
            index = raw_randrange(alive)
            hit, sequence = pending[index]
            considerations += 1
            hit_id = hit.hit_id
            taken_by = workers_on_hit[hit_id]
            worker = pick_candidate(rng, hit.unit_count, taken_by)
            if worker is None:
                consecutive_refusals += 1
                refusals += 1
                continue
            # Inlined RandomSource.chance: acceptance probabilities of 0/1
            # must not consume a draw.
            effort = hit.effort_seconds
            probability = worker.acceptance_probability(effort)
            if probability <= 0.0:
                accepted = False
            elif probability >= 1.0:
                accepted = True
            else:
                accepted = raw_random() < probability
            if not accepted:
                consecutive_refusals += 1
                refusals += 1
                continue
            consecutive_refusals = 0
            pop(index)
            alive -= 1
            worker_id = worker.worker_id
            taken_by.add(worker_id)
            # Work time: overhead plus a log-normal around effort × speed.
            nominal = effort * worker.speed
            if nominal < 0.5:
                nominal = 0.5
            work = work_overhead + nominal * raw_lognormvariate(0.0, work_sigma)
            reseed(child_seed_from_material(f"{seed_prefix}{hit_id}:{sequence}:{worker_id}"))
            answers = answer_hit(worker, hit, truth, child_rng)
            counter += 1
            completed.append(
                Assignment(
                    assignment_id=f"asn-{counter:06d}",
                    hit_id=hit_id,
                    worker_id=worker_id,
                    answers=answers,
                    accept_time=now,
                    submit_time=now + work,
                )
            )
            record_work(worker_id)

        self._assignment_counter = counter
        stats.considerations += considerations
        stats.refusals += refusals
        incomplete = {hit.hit_id for hit, _ in pending}
        return completed, now, incomplete


class MarketplaceClient:
    """One named client's view of a shared :class:`SimulatedMarketplace`.

    Satisfies the platform protocol the Task Manager posts through (both
    the blocking and the multi-client shapes), routing every group to the
    shared marketplace under this client's ``client_id`` so its dispatch
    draws come from the client's own stream (see the module docstring).
    Because the simulation resolves a group's assignments synchronously at
    submission, the facade can also attribute the marketplace's aggregate
    consideration/refusal/completion counters to the client exactly, by
    differencing them around each submit — which is what gives a session's
    per-query EXPLAIN footers real numbers despite the shared stats object.

    ``client_id=None`` is the default client: same shared stream a plain
    engine uses, with only the telemetry added.
    """

    def __init__(
        self,
        market: SimulatedMarketplace,
        client_id: str | None = None,
        on_submit=None,
    ) -> None:
        self.market = market
        self.client_id = client_id
        self.on_submit = on_submit
        """Optional ``(client, ticket)`` callback fired after each submit —
        the session's admission log hook."""
        self.groups_posted = 0
        self.hits_posted = 0
        self.considerations = 0
        self.refusals = 0
        self.assignments_completed = 0
        self.abandoned_assignments = 0
        self.expired_slots = 0
        self.spam_assignments = 0
        self.straggler_assignments = 0
        self.last_finish_time: float | None = None
        """Latest virtual finish this client has harvested; ``None`` until
        the first harvest. A client's makespan is this minus its epoch."""

    @property
    def clock_seconds(self) -> float:
        """The shared marketplace clock."""
        return self.market.clock_seconds

    @property
    def stats(self) -> MarketplaceStats:
        """The shared marketplace counters (session-wide, not per-client)."""
        return self.market.stats

    def submit_hit_group(
        self,
        hits: Sequence[HIT],
        group_id: str | None = None,
        post_time: float | None = None,
    ) -> HITGroupTicket:
        """Submit under this client's stream, recording per-client deltas."""
        shared = self.market.stats
        considerations = shared.considerations
        refusals = shared.refusals
        completed = shared.assignments_completed
        abandoned = shared.abandoned_assignments
        expired = shared.expired_slots
        spammed = shared.spam_assignments
        stragglers = shared.straggler_assignments
        ticket = self.market.submit_hit_group(
            hits, group_id=group_id, post_time=post_time, client_id=self.client_id
        )
        self.groups_posted += 1
        self.hits_posted += len(hits)
        self.considerations += shared.considerations - considerations
        self.refusals += shared.refusals - refusals
        self.assignments_completed += shared.assignments_completed - completed
        self.abandoned_assignments += shared.abandoned_assignments - abandoned
        self.expired_slots += shared.expired_slots - expired
        self.spam_assignments += shared.spam_assignments - spammed
        self.straggler_assignments += shared.straggler_assignments - stragglers
        if self.on_submit is not None:
            self.on_submit(self, ticket)
        return ticket

    def harvest(self, ticket: HITGroupTicket) -> list[Assignment]:
        """Harvest from the shared marketplace, tracking this client's
        latest finish time."""
        assignments = self.market.harvest(ticket)
        if self.last_finish_time is None or ticket.finish_time > self.last_finish_time:
            self.last_finish_time = ticket.finish_time
        return assignments

    def post_hit_group(
        self, hits: Sequence[HIT], group_id: str | None = None
    ) -> list[Assignment]:
        """Blocking post on this client's stream (submit + harvest).

        Like :meth:`SimulatedMarketplace.post_hit_group`, the harvest half
        skips transient-fault injection so a retried blocking post never
        double-submits the group.
        """
        if not hits:
            return []
        ticket = self.submit_hit_group(hits, group_id=group_id)
        self.market._suppress_transient = True
        try:
            return self.harvest(ticket)
        finally:
            self.market._suppress_transient = False
