"""Task cache (§2.6): completed HIT results keyed by payload content.

Qurk "first checks to see if the HIT is cached and if not generates HTML for
the HIT and dispatches it to the crowd". This mirrors TurKit's crash-and-
rerun caching [10]: re-running a workflow does not re-pay for answers the
crowd already gave.

Immutability contract
---------------------
Cached results are stored and returned as **tuples** of
:class:`~repro.hits.hit.Assignment` (which are themselves frozen
dataclasses). Callers must treat a :meth:`TaskCache.lookup` result as
read-only; in exchange, the cache never copies on lookup or store, which
keeps repeated cache hits allocation-free. Code that needs a mutable
collection should build its own ``list(...)`` from the result.

Cross-query sharing
-------------------
A multi-query session (:class:`~repro.core.session.EngineSession`) gives
every query a :class:`TaskCacheView` over one shared :class:`TaskCache`, so
identical units posted by different queries are asked on the marketplace
once and fanned out. The view records which query first stored each entry,
attributing *cross-query* hits (and the assignments they saved) to the
borrowing query for the session's sharing stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.hits.hit import HIT, Assignment, Payload


class HITCache(Protocol):
    """What the Task Manager needs from a cache (plain or session view)."""

    def lookup(self, hit: HIT) -> tuple[Assignment, ...] | None:
        ...  # pragma: no cover

    def store(self, hit: HIT, assignments: Sequence[Assignment]) -> None:
        ...  # pragma: no cover

    def contains_key(self, cache_key: str, payloads: Sequence[Payload] = ()) -> bool:
        ...  # pragma: no cover


def payload_cache_key(
    payloads: tuple[Payload, ...], assignments: int, cache_round: int = 1
) -> str:
    """A deterministic key for a HIT's content.

    Payload dataclasses are frozen; their ``repr`` includes every question
    and item reference, so two HITs asking exactly the same questions with
    the same replication collide (which is the point). Collection rounds
    after the first (adaptive top-ups, :attr:`HIT.cache_round`) are
    prefixed ``r=<round>|`` so that a top-up of the same units is asked
    anew instead of replaying the previous round's answers; round 1 keys
    are unprefixed. :attr:`HIT.cache_key` computes this same key once per
    HIT; prefer it on hot paths.
    """
    body = ";".join(sorted(repr(payload) for payload in payloads))
    key = f"a={assignments}|{body}"
    return f"r={cache_round}|{key}" if cache_round > 1 else key


@dataclass
class TaskCache:
    """In-memory HIT-result cache with hit/miss accounting."""

    _store: dict[str, tuple[Assignment, ...]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def lookup(self, hit: HIT) -> tuple[Assignment, ...] | None:
        """Cached assignments for an identical HIT, or None.

        The returned tuple is the stored object itself (see the module's
        immutability contract) — do not attempt to mutate it.
        """
        cached = self._store.get(hit.cache_key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        return cached

    def store(self, hit: HIT, assignments: Sequence[Assignment]) -> None:
        """Record completed assignments for future identical HITs."""
        self._store[hit.cache_key] = tuple(assignments)

    def contains_key(self, cache_key: str, payloads: Sequence[Payload] = ()) -> bool:
        """Whether a key is cached, *without* touching hit/miss accounting.

        Budget pre-flight peeks at keys it may never look up for real;
        counting those probes would distort the hit-rate stats.

        Contract: ``contains_key(k, payloads)`` is true iff an immediately
        following :meth:`lookup` of the HIT built from ``payloads`` (whose
        key is ``k``) would hit. Every :class:`HITCache` implementation
        must preserve this equivalence (the persistent store applies TTL
        expiry and its replay check inside both methods for exactly this
        reason) so that
        :meth:`~repro.hits.manager.TaskManager.projected_new_assignments`
        never projects cache savings the real lookup won't deliver.
        """
        return cache_key in self._store

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop all cached results (e.g. between experiment trials)."""
        self._store.clear()
        self.hits = 0
        self.misses = 0


@dataclass
class TaskCacheView:
    """One session client's window onto a shared :class:`TaskCache`.

    Lookups and stores delegate to the shared cache; ``owners`` (one dict
    shared by every view of the same session) remembers which client first
    stored each key, so a hit on another client's entry is counted as a
    *cross* hit — the work one query borrowed from another. ``hits`` /
    ``misses`` here are this client's own traffic; the shared cache keeps
    the session-wide totals.

    Ownership contract
    ------------------
    Ownership is **attribution-only**: neither :meth:`lookup` nor
    :meth:`contains_key` filters by owner — every client sees every shared
    entry (that is the session's whole dedup win), and ``owners`` merely
    decides whether a hit counts as *cross*-client for the sharing stats.
    Consequently ``contains_key(k)`` ⇔ "a lookup of ``k`` through *any*
    view would hit", exactly matching :meth:`TaskCache.contains_key`'s
    contract, and budget pre-flight
    (:meth:`~repro.hits.manager.TaskManager.projected_new_assignments`)
    running through a view counts precisely the hits the executor will
    later get. The shared cache may be a plain in-process
    :class:`TaskCache` or a
    :class:`~repro.hits.store.PersistentAnswerStore` — anything honouring
    the :class:`HITCache` protocol.
    """

    shared: HITCache
    owner: str
    owners: dict[str, str] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    cross_hits: int = 0
    cross_assignments: int = 0
    """Assignments this client reused from entries stored by other clients
    — crowd work (and dollars) the session's sharing saved this query."""

    def lookup(self, hit: HIT) -> tuple[Assignment, ...] | None:
        """Shared-cache lookup, attributing cross-client hits."""
        cached = self.shared.lookup(hit)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.owners.get(hit.cache_key, self.owner) != self.owner:
            self.cross_hits += 1
            self.cross_assignments += len(cached)
        return cached

    def store(self, hit: HIT, assignments: Sequence[Assignment]) -> None:
        """Store into the shared cache, claiming first ownership of the key."""
        self.owners.setdefault(hit.cache_key, self.owner)
        self.shared.store(hit, assignments)

    def contains_key(self, cache_key: str, payloads: Sequence[Payload] = ()) -> bool:
        """Accounting-free peek (see :meth:`TaskCache.contains_key`)."""
        return self.shared.contains_key(cache_key, payloads)
