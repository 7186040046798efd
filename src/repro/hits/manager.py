"""The Task Manager (§2.6): batching, grouping, dispatch, and accounting.

Operators hand the manager *units* of work — per-tuple (or per-pair,
per-group) payload bundles. The manager:

1. applies **merging** (one task, many tuples per HIT) by slicing units into
   batches of ``batch_size``;
2. applies **combining** (many tasks, one tuple per HIT) when a unit carries
   payloads from several tasks;
3. compiles HTML and effort via the HIT compiler;
4. posts the HITs to the platform as one HIT group (Turkers gravitate to
   large groups, which the latency model exploits);
5. consults the task cache when one is configured;
6. records HIT/assignment counts in the cost ledger;
7. returns per-question vote lists ready for a combiner.

Posting comes in two shapes. :meth:`TaskManager.run_units` /
:meth:`TaskManager.post_hits` are the blocking interface: post one group,
wait (in virtual time) for it, return its :class:`BatchOutcome`.
:meth:`TaskManager.begin_units` / :meth:`TaskManager.begin_hits` are the
non-blocking post/poll interface: they return a :class:`PendingBatch` whose
:meth:`PendingBatch.result` is collected later, so an operator can have
several rounds outstanding at once. Against a plain blocking platform the
pending batch resolves eagerly (identical to the blocking interface,
draw-for-draw); given an explicit ``post_time`` and a platform with the
multi-client ``submit_hit_group``/``harvest`` API (the simulated
marketplace), the group stays outstanding until ``result()`` harvests it.
The scheduler passes ``post_time`` exactly when the platform has that API
(:func:`platform_supports_overlap`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.errors import (
    ExecutionError,
    HITUncompletedError,
    MarketplaceError,
    TaskError,
    TransientMarketplaceError,
)
from repro.hits.cache import HITCache, payload_cache_key
from repro.hits.compiler import HITCompiler, merge_payloads
from repro.hits.hit import HIT, Assignment, Payload, Vote
from repro.hits.pricing import CostLedger
from repro.hits.resilience import ResilienceState

_new_tuple = tuple.__new__


class CrowdPlatform(Protocol):
    """What the manager needs from a crowd platform (simulated or real)."""

    def post_hit_group(
        self, hits: Sequence[HIT], group_id: str | None = None
    ) -> list[Assignment]:
        """Post HITs as one group; block until completed (or deadline)."""
        ...  # pragma: no cover

    @property
    def clock_seconds(self) -> float:
        """The platform's current (virtual) time in seconds."""
        ...  # pragma: no cover


def platform_supports_overlap(platform: object) -> bool:
    """Whether a platform exposes the multi-client outstanding-HIT API.

    With ``submit_hit_group``/``harvest`` (the simulated marketplace has
    them) the scheduler keeps HIT groups outstanding over overlapping
    virtual intervals and a session may run its queries concurrently.
    Anything else — the real MTurk shim, a test double wrapping
    ``post_hit_group`` — gets the same scheduler with every group posted
    blocking, and sessions run serially. Results are the same either way.
    """
    return hasattr(platform, "submit_hit_group") and hasattr(platform, "harvest")


@dataclass
class BatchOutcome:
    """Everything an operator needs from one round of posted HITs."""

    hits: list[HIT] = field(default_factory=list)
    assignments: list[Assignment] = field(default_factory=list)
    votes: dict[str, list[Vote]] = field(default_factory=dict)
    post_time: float = 0.0
    finish_time: float = 0.0
    uncompleted_hit_ids: list[str] = field(default_factory=list)

    @property
    def hit_count(self) -> int:
        """HITs posted in this round (assignment multiplier excluded)."""
        return len(self.hits)

    @property
    def assignment_count(self) -> int:
        """Assignments completed in this round."""
        return len(self.assignments)

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock (virtual) seconds from posting to the last submission."""
        return max(0.0, self.finish_time - self.post_time)

    def assignment_latencies(self) -> list[float]:
        """Per-assignment completion latency relative to posting time."""
        return [a.submit_time - self.post_time for a in self.assignments]

    def latency_quantiles(
        self, probs: Sequence[float] = (0.5, 0.9), kind: str = "submit"
    ) -> list[float]:
        """Empirical latency quantiles relative to posting time.

        ``kind`` selects the ``"submit"`` (completion) or ``"accept"``
        (pick-up) timestamps. Quantiles use the nearest-rank convention on
        the sorted latencies, so they stay exact for the determinism traces
        and comparable between the scalar and vectorized dispatch domains
        (``tests/test_vector_stats.py`` pins the two within tolerance).
        Returns an empty list when the round completed no assignments.
        """
        if kind not in ("submit", "accept"):
            raise ValueError(f"unknown latency kind: {kind!r}")
        if not self.assignments:
            return []
        post_time = self.post_time
        if kind == "submit":
            stamps = sorted(a.submit_time - post_time for a in self.assignments)
        else:
            stamps = sorted(a.accept_time - post_time for a in self.assignments)
        last = len(stamps) - 1
        return [stamps[min(last, int(p * len(stamps)))] for p in probs]

    def merge(self, other: "BatchOutcome") -> None:
        """Fold another round's results into this one (serial phases).

        An outcome with no HITs posted nothing, so its ``post_time`` marks
        no posting: it takes the merged round's ``post_time``, and a round
        without HITs leaves a posted outcome's ``post_time`` alone."""
        if not self.hits:
            self.post_time = other.post_time
        elif other.hits:
            self.post_time = min(self.post_time, other.post_time)
        self.hits.extend(other.hits)
        self.assignments.extend(other.assignments)
        for qid, votes in other.votes.items():
            self.votes.setdefault(qid, []).extend(votes)
        self.finish_time = max(self.finish_time, other.finish_time)
        self.uncompleted_hit_ids.extend(other.uncompleted_hit_ids)


class TaskManager:
    """Applies batching/grouping and dispatches HITs to a platform."""

    def __init__(
        self,
        platform: CrowdPlatform,
        ledger: CostLedger | None = None,
        compiler: HITCompiler | None = None,
        cache: HITCache | None = None,
        reward: float = 0.01,
        resilience: ResilienceState | None = None,
    ) -> None:
        self.platform = platform
        self.ledger = ledger or CostLedger()
        self.compiler = compiler or HITCompiler()
        self.cache = cache
        self.reward = reward
        self.resilience = resilience
        """Per-query resilience bundle (:func:`repro.hits.resilience.build_resilience`);
        ``None`` keeps the manager's historical strict behaviour exactly."""
        self._hit_counter = 0
        self._group_counter = 0

    def _call_platform(self, call):
        """Run a platform call, absorbing transient failures when resilient.

        Without a resilience state the call runs bare — a
        :class:`TransientMarketplaceError` then propagates like any other
        :class:`MarketplaceError`, today's behaviour. With one, transient
        failures are retried behind the circuit breaker; when the breaker
        opens (``circuit_threshold`` consecutive failures) a plain
        :class:`MarketplaceError` is raised instead of hammering on, which
        the engine facades absorb into a degraded/aborted query.
        """
        state = self.resilience
        if state is None:
            return call()
        breaker = state.breaker
        while True:
            if not breaker.allow(self.platform.clock_seconds):
                raise MarketplaceError(
                    "circuit breaker open: platform failed transiently "
                    f"{breaker.failures} time(s) in a row"
                )
            try:
                result = call()
            except TransientMarketplaceError:
                state.summary.transient_retries += 1
                if breaker.record_failure(self.platform.clock_seconds):
                    state.summary.circuit_opens += 1
                    raise MarketplaceError(
                        "circuit breaker opened after "
                        f"{breaker.failures} consecutive transient platform failures"
                    )
                continue
            breaker.record_success()
            return result

    def _next_hit_id(self, label: str) -> str:
        self._hit_counter += 1
        return f"hit-{label}-{self._hit_counter}"

    def _next_group_id(self, label: str) -> str:
        self._group_counter += 1
        return f"group-{label}-{self._group_counter}"

    def build_hits(
        self,
        units: Sequence[Sequence[Payload]],
        batch_size: int,
        assignments: int,
        label: str,
    ) -> list[HIT]:
        """Slice units into batched, compiled HITs without posting them.

        Each unit is the payload bundle for one tuple/pair/group; a unit with
        several payloads represents *combining* (several tasks on the same
        tuple). Units are merged ``batch_size`` at a time; payloads of the
        same task merge into one batched payload inside the HIT.
        """
        hits: list[HIT] = []
        for merged in self.merge_units(units, batch_size):
            hit = HIT(
                hit_id=self._next_hit_id(label),
                payloads=merged,
                assignments_requested=assignments,
                reward=self.reward,
            )
            self.compiler.compile(hit)
            hits.append(hit)
        return hits

    @staticmethod
    def merge_units(
        units: Sequence[Sequence[Payload]], batch_size: int
    ) -> list[tuple[Payload, ...]]:
        """The batching/merging step of :meth:`build_hits`, minting nothing.

        Returns one merged payload tuple per would-be HIT (batch ``i``
        covers ``units[i * batch_size : (i + 1) * batch_size]``). Exposed
        separately so budget pre-flight can compute the cache keys the
        HITs *would* have without consuming HIT ids or compiling HTML.
        """
        if batch_size < 1:
            raise TaskError(f"batch_size must be >= 1, got {batch_size}")
        batches: list[tuple[Payload, ...]] = []
        for start in range(0, len(units), batch_size):
            chunk = units[start : start + batch_size]
            by_task: dict[tuple[str, str], list[Payload]] = {}
            order: list[tuple[str, str]] = []
            for unit in chunk:
                if not unit:
                    raise TaskError("encountered an empty work unit")
                for payload in unit:
                    key = (payload.kind, payload.task_name)
                    if key not in by_task:
                        by_task[key] = []
                        order.append(key)
                    by_task[key].append(payload)
            batches.append(tuple(merge_payloads(by_task[key]) for key in order))
        return batches

    def projected_new_assignments(
        self,
        units: Sequence[Sequence[Payload]],
        batch_size: int,
        assignments: int,
    ) -> int:
        """Budget pre-flight: assignments the next posting round would buy.

        Projects ``assignments`` per unit — the same deliberate per-unit
        overestimate the operators have always pre-flighted (actual charges
        are per completed assignment of the *batched* HITs) — but skips
        units whose merged batch is already in the task cache: work the
        crowd already did is fanned out free of charge, which matters when
        a session shares one cache across queries and a later query would
        otherwise abort on a budget it will never actually spend. Without a
        cache (or with no cached batch) this is exactly
        ``len(units) * assignments``.
        """
        if not units:
            return 0
        if self.cache is None:
            return len(units) * assignments
        uncached_units = 0
        for index, merged in enumerate(self.merge_units(units, batch_size)):
            if not self.cache.contains_key(payload_cache_key(merged, assignments)):
                start = index * batch_size
                uncached_units += len(units[start : start + batch_size])
        return uncached_units * assignments

    def run_units(
        self,
        units: Sequence[Sequence[Payload]],
        batch_size: int = 1,
        assignments: int = 5,
        label: str = "task",
        strict: bool = True,
    ) -> BatchOutcome:
        """Batch, post, and collect one round of work.

        With ``strict=True`` (default) a HIT left uncompleted by the crowd
        raises :class:`HITUncompletedError`; experiments measuring refusal
        behaviour pass ``strict=False`` and inspect
        ``BatchOutcome.uncompleted_hit_ids``.
        """
        hits = self.build_hits(units, batch_size, assignments, label)
        return self.post_hits(hits, label=label, strict=strict)

    def post_hits(self, hits: list[HIT], label: str = "task", strict: bool = True) -> BatchOutcome:
        """Post already-built HITs as one group and collect assignments."""
        return self.begin_hits(hits, label=label, strict=strict).result()

    def begin_units(
        self,
        units: Sequence[Sequence[Payload]],
        batch_size: int = 1,
        assignments: int = 5,
        label: str = "task",
        strict: bool = True,
        post_time: float | None = None,
    ) -> "PendingBatch":
        """Batch and post one round of work without collecting it.

        See :meth:`begin_hits` for the ``post_time`` semantics.
        """
        hits = self.build_hits(units, batch_size, assignments, label)
        return self.begin_hits(hits, label=label, strict=strict, post_time=post_time)

    def begin_hits(
        self,
        hits: list[HIT],
        label: str = "task",
        strict: bool = True,
        post_time: float | None = None,
    ) -> "PendingBatch":
        """Post already-built HITs as one group; collect via ``result()``.

        With ``post_time=None`` (default) the group is posted *blocking* at
        the platform's current clock and the returned batch is already
        resolved — ``begin_hits(...).result()`` is ``post_hits(...)``
        draw-for-draw, including when several begins are interleaved (each
        posting advances the shared clock before the next, exactly like the
        serial calls they replace).

        With an explicit ``post_time`` the group is submitted outstanding at
        that virtual time through the platform's multi-client API
        (``submit_hit_group``; the platform must support it) and stays on
        the marketplace until ``result()`` harvests it — several pending
        batches may then cover overlapping virtual intervals. Accounting
        (ledger, vote bucketing, strictness) happens at ``result()`` time
        in both shapes; cache stores happen at posting time, so a group
        begun while this one is outstanding sees its results.
        """
        outcome = BatchOutcome(
            post_time=self.platform.clock_seconds if post_time is None else post_time
        )
        if not hits:
            outcome.finish_time = outcome.post_time
            return PendingBatch(self, outcome, [], label, strict)

        to_post: list[HIT] = []
        for hit in hits:
            cached = self.cache.lookup(hit) if self.cache is not None else None
            if cached is not None:
                outcome.hits.append(hit)
                outcome.assignments.extend(cached)
            else:
                to_post.append(hit)

        pending = PendingBatch(self, outcome, to_post, label, strict)
        if to_post:
            group_id = self._next_group_id(label)
            for hit in to_post:
                hit.group_id = group_id
            if post_time is None:
                pending._completed = self._call_platform(
                    lambda: self.platform.post_hit_group(to_post, group_id=group_id)
                )
                pending._finish_time = self.platform.clock_seconds
            else:
                pending._ticket = self._call_platform(
                    lambda: self.platform.submit_hit_group(
                        to_post, group_id=group_id, post_time=post_time
                    )
                )
                pending._finish_time = pending._ticket.finish_time
                if self.cache is not None:
                    # Store now, not at harvest: a group posted while this
                    # one is outstanding must see these results in its
                    # cache lookup, exactly as it would after a blocking
                    # post. (The simulation resolved the assignments at
                    # submission; only the clock bookkeeping is deferred.)
                    self._store_in_cache(to_post, pending._ticket.assignments)
                    pending._cache_stored = True
        if post_time is None:
            # Nothing (or only cache hits) posted: resolve on the spot so the
            # blocking shape never leaves work dangling.
            pending.result()
        return pending

    @staticmethod
    def _group_by_hit(
        completed: Sequence[Assignment],
    ) -> dict[str, list[Assignment]]:
        """Completed assignments keyed by their HIT id."""
        by_hit: dict[str, list[Assignment]] = {}
        for assignment in completed:
            by_hit.setdefault(assignment.hit_id, []).append(assignment)
        return by_hit

    def _store_in_cache(
        self, to_post: list[HIT], completed: Sequence[Assignment]
    ) -> None:
        """Cache every posted HIT's completed assignments."""
        assert self.cache is not None
        by_hit = self._group_by_hit(completed)
        for hit in to_post:
            hit_assignments = by_hit.get(hit.hit_id, [])
            if hit_assignments:
                self.cache.store(hit, hit_assignments)

    def _finalize_outcome(
        self,
        outcome: BatchOutcome,
        to_post: list[HIT],
        completed: Sequence[Assignment],
        label: str,
        strict: bool,
        finish_time: float,
        cache_stored: bool = False,
    ) -> BatchOutcome:
        """Fold a group's completed assignments into its outcome: per-HIT
        bookkeeping, shortfall recovery, cache stores, ledger charges, vote
        buckets, strictness/degradation."""
        state = self.resilience
        if to_post:
            completed = list(completed)
            refreshed: set[str] = set()
            reposted = 0
            if state is not None and state.policy.max_reposts > 0:
                completed, finish_time, refreshed, reposted = self._recover_shortfall(
                    to_post, completed, label, outcome.post_time, finish_time
                )
            by_hit = self._group_by_hit(completed)
            for hit in to_post:
                hit_assignments = by_hit.get(hit.hit_id, [])
                outcome.hits.append(hit)
                outcome.assignments.extend(hit_assignments)
                if not hit_assignments:
                    outcome.uncompleted_hit_ids.append(hit.hit_id)
                elif self.cache is not None and (
                    not cache_stored or hit.hit_id in refreshed
                ):
                    # Recovered hits re-store: the eager at-submit store
                    # cached the faulted (shortfall) assignment set.
                    self.cache.store(hit, hit_assignments)
            # Only pay for work actually completed (reposted clone HITs
            # count as posted-HIT overhead).
            self.ledger.record(
                label,
                hits=len(to_post) - len(outcome.uncompleted_hit_ids) + reposted,
                assignments=len(completed),
            )
            if state is not None:
                quorum = state.policy.degrade_quorum
                for hit in to_post:
                    got = len(by_hit.get(hit.hit_id, []))
                    need = hit.assignments_requested
                    if got < need:
                        state.summary.unfilled_assignments += need - got
                        if got < need * quorum:
                            state.summary.note_degraded(label)

        outcome.finish_time = finish_time
        # Votes are immutable, so an assignment's yes/no answers share one
        # Vote each; tuple.__new__ skips the NamedTuple's Python-level __new__.
        votes = outcome.votes
        get_bucket = votes.get
        for assignment in outcome.assignments:
            worker_id = assignment.worker_id
            yes = _new_tuple(Vote, (worker_id, True))
            no = _new_tuple(Vote, (worker_id, False))
            for qid, value in assignment.answers.items():
                bucket = get_bucket(qid)
                if bucket is None:
                    bucket = votes[qid] = []
                if value is True:
                    bucket.append(yes)
                elif value is False:
                    bucket.append(no)
                else:
                    bucket.append(_new_tuple(Vote, (worker_id, value)))
        if strict and outcome.uncompleted_hit_ids:
            if state is None:
                raise HITUncompletedError(
                    f"{len(outcome.uncompleted_hit_ids)} HIT(s) in group {label!r} "
                    "were not completed by the crowd (workers likely refused the "
                    "batch size at this price)",
                    hit_ids=list(outcome.uncompleted_hit_ids),
                )
            if to_post and not outcome.assignments:
                # Defensive hang guard: every slot of every HIT went
                # unfilled even after retries — downstream combiners would
                # spin on zero votes forever. Surface it loudly instead.
                # ExecutionError is deliberately not absorbed by the
                # graceful query-degradation layer.
                raise ExecutionError(
                    f"HIT group {label!r} can never finish: all "
                    f"{sum(h.assignments_requested for h in to_post)} slot(s) "
                    f"across {len(to_post)} HIT(s) went unfilled after "
                    f"{self.resilience.summary.reposts} repost round(s)"
                )
            # Degraded completion: combiners work with the k-of-n votes
            # that did arrive; the shortfall is in the summary.
        return outcome

    def _recover_shortfall(
        self,
        to_post: list[HIT],
        completed: list[Assignment],
        label: str,
        post_time: float,
        finish_time: float,
    ) -> tuple[list[Assignment], float, set[str], int]:
        """Repost unfilled/abandoned slots with exponential backoff.

        Each round clones every short HIT with ``assignments_requested``
        set to its missing slot count (optionally escalating the reward),
        posts the clones as a fresh group after the round's backoff, and
        remaps the recovered assignments onto the original HIT ids.
        Returns the augmented assignment list, the new finish time, the
        original hit ids whose cache entries need re-storing, and the
        number of clone HITs posted.
        """
        state = self.resilience
        policy = state.policy
        refreshed: set[str] = set()
        reposted = 0
        extra_cost = 0.0
        use_overlap = platform_supports_overlap(self.platform)
        zero_progress = 0
        for attempt in range(1, policy.max_reposts + 1):
            by_hit = self._group_by_hit(completed)
            shortfall = [
                (hit, hit.assignments_requested - len(by_hit.get(hit.hit_id, ())))
                for hit in to_post
            ]
            shortfall = [(hit, missing) for hit, missing in shortfall if missing > 0]
            if not shortfall:
                break
            repost_time = finish_time + policy.backoff_for(attempt)
            if (
                policy.retry_deadline is not None
                and repost_time - post_time > policy.retry_deadline
            ):
                break
            bump = self.reward * policy.price_escalation * attempt
            clones: list[HIT] = []
            clone_to_original: dict[str, str] = {}
            for hit, missing in shortfall:
                clone = HIT(
                    hit_id=self._next_hit_id(f"{label}.r{attempt}"),
                    payloads=hit.payloads,
                    assignments_requested=missing,
                    reward=self.reward + bump,
                )
                self.compiler.compile(clone)
                clones.append(clone)
                clone_to_original[clone.hit_id] = hit.hit_id
            group_id = self._next_group_id(f"{label}.repost")
            for clone in clones:
                clone.group_id = group_id
            if use_overlap:
                ticket = self._call_platform(
                    lambda: self.platform.submit_hit_group(
                        clones, group_id=group_id, post_time=repost_time
                    )
                )
                extras = self._call_platform(lambda: self.platform.harvest(ticket))
                round_finish = ticket.finish_time
            else:
                extras = self._call_platform(
                    lambda: self.platform.post_hit_group(clones, group_id=group_id)
                )
                round_finish = self.platform.clock_seconds
            state.summary.reposts += 1
            state.summary.reposted_hits += len(clones)
            reposted += len(clones)
            finish_time = max(finish_time, round_finish)
            if not extras:
                # Reposts that keep coming back empty (the faults ate the
                # whole round) will not improve: stop after two in a row.
                zero_progress += 1
                if zero_progress >= 2:
                    break
                continue
            zero_progress = 0
            state.summary.recovered_assignments += len(extras)
            if bump > 0:
                extra_cost += len(extras) * bump
            for assignment in extras:
                original = clone_to_original[assignment.hit_id]
                refreshed.add(original)
                completed.append(assignment._replace(hit_id=original))
        if extra_cost > 0:
            self.ledger.record(label, 0, 0, extra_cost=extra_cost)
        return completed, finish_time, refreshed, reposted


class PendingBatch:
    """One posted-but-uncollected HIT group (the manager's poll handle).

    ``finish_time`` is known from the moment of posting (the simulation
    resolves dispatch eagerly) and is what schedulers sort by to harvest
    completions in virtual-time order; :meth:`result` performs the actual
    harvest plus all deferred accounting, exactly once.
    """

    __slots__ = (
        "_manager",
        "_outcome",
        "_to_post",
        "_label",
        "_strict",
        "_ticket",
        "_completed",
        "_finish_time",
        "_resolved",
        "_cache_stored",
    )

    def __init__(
        self,
        manager: TaskManager,
        outcome: BatchOutcome,
        to_post: list[HIT],
        label: str,
        strict: bool,
    ) -> None:
        self._manager = manager
        self._outcome = outcome
        self._to_post = to_post
        self._label = label
        self._strict = strict
        self._ticket = None
        self._completed: Sequence[Assignment] = ()
        self._finish_time = outcome.post_time
        self._resolved = False
        self._cache_stored = False

    @property
    def post_time(self) -> float:
        """Virtual time the group was posted."""
        return self._outcome.post_time

    @property
    def posted(self) -> bool:
        """Whether any HIT actually reached the platform (cache misses)."""
        return bool(self._to_post)

    @property
    def inflight_assignments(self) -> int:
        """Completed assignments awaiting harvest (0 once collected).

        This is exactly what the ledger will charge at :meth:`result`, so
        budget pre-flight checks can count outstanding work the way the
        blocking interface's eager charging would have."""
        if self._resolved or self._ticket is None:
            return 0
        return len(self._ticket.assignments)

    @property
    def finish_time(self) -> float:
        """Virtual time the group resolves (peek — does not harvest)."""
        return self._finish_time

    @property
    def done(self) -> bool:
        """Whether :meth:`result` has already collected this batch."""
        return self._resolved

    def result(self) -> BatchOutcome:
        """Collect the batch: harvest, account, and return its outcome.

        Idempotent; the first call does the work (and may raise
        :class:`HITUncompletedError` under ``strict``)."""
        if self._resolved:
            return self._outcome
        self._resolved = True
        completed = self._completed
        if self._ticket is not None:
            # Routed through the transient-retry wrapper: a failed harvest
            # leaves the ticket outstanding, so retrying it is safe.
            completed = self._manager._call_platform(
                lambda: self._manager.platform.harvest(self._ticket)
            )
        return self._manager._finalize_outcome(
            self._outcome,
            self._to_post,
            completed,
            self._label,
            self._strict,
            self._finish_time,
            cache_stored=self._cache_stored,
        )


def collect_pending(pendings: Sequence[PendingBatch]) -> list[BatchOutcome]:
    """Resolve pending batches, harvesting in virtual-time order.

    Outcomes are returned in the *input* order (what callers zip against);
    the harvests themselves run ordered by ``finish_time`` so the shared
    clock advances the way a live marketplace would deliver completions.
    """
    for pending in sorted(pendings, key=lambda p: p.finish_time):
        pending.result()
        if not pending.done:
            # Defensive hang guard: result() must resolve the batch (even a
            # group whose every slot was abandoned resolves, to an outcome
            # with no assignments). If it ever did not, looping or
            # re-collecting would wedge the harvest ordering — fail loudly.
            raise ExecutionError(
                "pending HIT group did not resolve after harvest; "
                "refusing to loop on an uncollectable group"
            )
    return [pending.result() for pending in pendings]
