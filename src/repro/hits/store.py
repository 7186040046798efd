"""Persistent cross-run answer store (SQLite) behind the task-cache interface.

The paper's economics (§2.6, §6) hinge on crowd answers being expensive and
reusable: TurKit-style crash-and-rerun caching means a re-run never re-pays
for answers the crowd already gave. The in-memory
:class:`~repro.hits.cache.TaskCache` delivers that *within* one process;
this module extends it *across* processes. A
:class:`PersistentAnswerStore` is a drop-in
:class:`~repro.hits.cache.HITCache`: write-through on :meth:`store`,
read-through on :meth:`lookup`, with rows versioned by
``(cache_key, fingerprint, schema_version)`` so answers recorded under
different combiner semantics or an older storage layout never leak into a
newer engine.

Layering
--------
The store keeps an in-process memory layer (a plain dict, same tuple
objects) in front of SQLite. Repeated lookups within one process are
served from memory — allocation-free and byte-for-byte the same tuples,
preserving :mod:`repro.hits.cache`'s immutability contract — while the
first lookup of a key in a fresh process reads through to disk. Sessions
layer :class:`~repro.hits.cache.TaskCacheView` on top exactly as they do
over a plain ``TaskCache``; owner attribution is unchanged.

Durability contract
-------------------
The store must never crash the engine:

* writes run in WAL mode (readers never block on a writer; a crash
  mid-write rolls back to the last committed frame);
* on open, the file is sanity-scanned (``PRAGMA quick_check`` + schema
  validation). A truncated, garbage, or wrong-schema-version file is
  *quarantined* (renamed to ``<path>.corrupt-N`` alongside its WAL/SHM
  companions) and the store rebuilds empty, logging a warning;
* any later SQLite error degrades the store to memory-only mode for the
  rest of the process — lookups fall back to the memory layer, stores
  stop touching disk — again with a logged warning, never an exception
  into the engine.

Recency, TTL and eviction
-------------------------
``ttl_seconds`` expires rows by age since ``created_at`` (swept on open,
and checked lazily on every disk fetch); ``max_rows`` / ``max_bytes``
bound the table with LRU-style eviction. The eviction victim is always
the minimum ``(last_used_at, cache_key)`` — cache_key as the tiebreak
makes eviction order deterministic under equal timestamps (the virtual
clock in tests, coarse wall clocks in production). Recency is tracked at
*persistence* granularity: only lookups that actually read the disk
update ``last_used_at``; memory-layer hits don't, keeping the hot path
free of writes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Sequence, Union

from repro.errors import StoreConfigError
from repro.hits.hit import ASKED_QIDS, HIT, Assignment, Payload
from repro.relational.expressions import UNKNOWN
from repro.util.fields import Rule, check_fields, instance, integer, real

logger = logging.getLogger(__name__)

STORE_SCHEMA_VERSION = 1
"""Bumped whenever the row layout or serialization format changes; rows
written under any other version are invisible to lookups and the file is
rebuilt rather than migrated (answers are a cache, not a system of
record)."""

COMBINER_SEMANTICS_VERSION = 1
"""Bumped whenever vote→answer combining changes meaning. Raw assignments
are combiner-independent, but the fingerprint guards against semantic
upgrades where replaying old raw answers would be misleading."""


def combiner_fingerprint(combiner: str | None = None) -> str:
    """Stable fingerprint of the combiner configuration answers were
    recorded under. Rows only match lookups made under the same
    fingerprint, so another ``StoreConfig.combiner`` label (or a bump of
    :data:`COMBINER_SEMANTICS_VERSION`) isolates old answers instead of
    silently reusing them. ``ExecutionConfig.combiner`` does not feed it,
    and need not: rows hold raw assignments, and the query's own combiner
    runs over them after replay."""
    body = f"v{COMBINER_SEMANTICS_VERSION}|combiner={combiner or 'default'}"
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class StoreConfig:
    """Declarative spec for a persistent store (accepted by ``Qurk(store=)``).

    ``ttl_seconds=None`` disables age expiry; ``max_rows`` / ``max_bytes``
    of ``None`` disable the respective eviction budget.
    """

    path: str | Path
    ttl_seconds: float | None = None
    max_rows: int | None = None
    max_bytes: int | None = None
    combiner: str | None = None

    rules: ClassVar[dict[str, Rule]] = {
        "path": instance(str, os.PathLike),
        "ttl_seconds": real(0, low_open=True, optional=True),
        "max_rows": integer(1, optional=True),
        "max_bytes": integer(1, optional=True),
        "combiner": instance(str, optional=True),
    }

    def __post_init__(self) -> None:
        check_fields(self, self.rules, StoreConfigError)


_CREATE_SQL = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS answers (
        cache_key TEXT NOT NULL,
        fingerprint TEXT NOT NULL,
        schema_version INTEGER NOT NULL,
        assignments TEXT NOT NULL,
        assignment_count INTEGER NOT NULL,
        byte_size INTEGER NOT NULL,
        created_at REAL NOT NULL,
        last_used_at REAL NOT NULL,
        PRIMARY KEY (cache_key, fingerprint, schema_version)
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_answers_lru
        ON answers (last_used_at, cache_key)
    """,
)


_UNKNOWN_KEY = "$repro-unknown$"
"""Tag object standing in for the UNKNOWN answer sentinel in stored JSON
(the paper's §2.4 wildcard feature value, a process-local singleton)."""


def _encode_value(value: object) -> object:
    if value is UNKNOWN:
        return {_UNKNOWN_KEY: True}
    return value


def _decode_value(value: object) -> object:
    if isinstance(value, dict) and _UNKNOWN_KEY in value:
        return UNKNOWN
    return value


def _encode_assignments(assignments: Sequence[Assignment]) -> str:
    """JSON-encode assignments. Answer values are bool/int/float/str —
    which JSON round-trips exactly (shortest-repr floats included), so a
    warm decode is bit-identical to what was stored — plus the UNKNOWN
    sentinel, which travels as a tag object and decodes back to the same
    singleton. Anything else raises ``TypeError`` (the caller keeps that
    entry memory-only)."""
    return json.dumps(
        [
            {
                "assignment_id": a.assignment_id,
                "hit_id": a.hit_id,
                "worker_id": a.worker_id,
                "answers": {
                    qid: _encode_value(value) for qid, value in a.answers.items()
                },
                "accept_time": a.accept_time,
                "submit_time": a.submit_time,
            }
            for a in assignments
        ],
        separators=(",", ":"),
        allow_nan=False,
    )


def _decode_assignments(blob: str) -> tuple[Assignment, ...]:
    return tuple(
        Assignment(
            assignment_id=rec["assignment_id"],
            hit_id=rec["hit_id"],
            worker_id=rec["worker_id"],
            answers={
                qid: _decode_value(value)
                for qid, value in rec["answers"].items()
            },
            accept_time=rec["accept_time"],
            submit_time=rec["submit_time"],
        )
        for rec in json.loads(blob)
    )


def _replayable(
    blob: str, payloads: Sequence[Payload]
) -> tuple[tuple[Assignment, ...], str | None]:
    """A disk row's assignments, and why they cannot answer the HIT built
    from ``payloads`` (``None`` when they can): the blob does not decode,
    or an answer's id names a question of one of the HIT's tasks that it
    does not ask. Rows of HITs with an out-of-tree payload kind, whose ids
    are unknown, are not checked."""
    try:
        assignments = _decode_assignments(blob)
    except (ValueError, KeyError, TypeError) as exc:
        return (), f"undecodable ({exc})"
    listings = [ASKED_QIDS.get(payload.kind) for payload in payloads]
    if None in listings:
        return assignments, None
    asked = {qid for lists, p in zip(listings, payloads) for qid in lists(p)}
    tasks = tuple(f"{payload.task_name}:" for payload in payloads)
    for assignment in assignments:
        for qid in assignment.answers:
            if qid not in asked and qid.startswith(tasks):
                return assignments, f"answers {qid!r}, which the HIT does not ask"
    return assignments, None


class PersistentAnswerStore:
    """SQLite-backed :class:`~repro.hits.cache.HITCache` (see module docs).

    Exposes the same ``hits`` / ``misses`` counters, ``__len__`` and
    ``clear()`` as :class:`~repro.hits.cache.TaskCache`, plus persistence
    counters (``persistent_hits``, ``assignments_reused``,
    ``evictions_ttl``, ``evictions_budget``, ``rebuilds``) that EXPLAIN
    surfaces per query.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        ttl_seconds: float | None = None,
        max_rows: int | None = None,
        max_bytes: int | None = None,
        fingerprint: str | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        StoreConfig(path, ttl_seconds, max_rows, max_bytes)  # checks the knobs
        self.path = Path(path)
        self.ttl_seconds = ttl_seconds
        self.max_rows = max_rows
        self.max_bytes = max_bytes
        self.fingerprint = fingerprint or combiner_fingerprint()
        self._clock = clock
        self._memory: dict[str, tuple[tuple[Assignment, ...], float]] = {}
        """key → (assignments, created_at). The memory layer carries the
        row's creation time so TTL expiry applies to in-process entries
        too, keeping ``contains_key`` ⇔ ``lookup``-would-hit exact."""
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0
        self.assignments_reused = 0
        self.evictions_ttl = 0
        self.evictions_budget = 0
        self.rebuilds = 0
        self.degraded = False
        self._conn: sqlite3.Connection | None = None
        self._open()

    # -- opening, validation, and recovery ---------------------------------

    def _open(self) -> None:
        try:
            self._conn = self._connect_and_validate()
        except sqlite3.Error as exc:
            self._quarantine(reason=str(exc))
            try:
                self._conn = self._connect_and_validate()
            except sqlite3.Error as exc2:  # pragma: no cover - disk hostile
                logger.warning(
                    "answer store rebuild failed (%s); degrading to "
                    "memory-only for this process",
                    exc2,
                )
                self._conn = None
                self.degraded = True
        if self._conn is not None:
            self._sweep_expired()

    def _connect_and_validate(self) -> sqlite3.Connection:
        """Open + sanity-scan; raises ``sqlite3.Error`` on anything fishy."""
        conn = sqlite3.connect(self.path, isolation_level=None)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            verdict = conn.execute("PRAGMA quick_check").fetchone()
            if verdict is None or verdict[0] != "ok":
                raise sqlite3.DatabaseError(
                    f"quick_check failed: {verdict[0] if verdict else 'empty'}"
                )
            existing = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            if "meta" in existing:
                row = conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                if row is None or row[0] != str(STORE_SCHEMA_VERSION):
                    raise sqlite3.DatabaseError(
                        f"schema_version {row[0] if row else 'missing'!r} "
                        f"!= {STORE_SCHEMA_VERSION} (layout not trusted)"
                    )
            for statement in _CREATE_SQL:
                conn.execute(statement)
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES "
                "('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
            return conn
        except sqlite3.Error:
            conn.close()
            raise

    def _quarantine(self, reason: str) -> None:
        """Rename the damaged file (and WAL/SHM companions) out of the way."""
        if not self.path.exists():
            return
        n = 0
        while True:
            target = self.path.with_name(f"{self.path.name}.corrupt-{n}")
            if not target.exists():
                break
            n += 1
        try:
            os.replace(self.path, target)
            for suffix in ("-wal", "-shm"):
                side = self.path.with_name(self.path.name + suffix)
                if side.exists():
                    os.replace(side, target.with_name(target.name + suffix))
        except OSError as exc:  # pragma: no cover - disk hostile
            logger.warning("could not quarantine %s: %s", self.path, exc)
        self.rebuilds += 1
        logger.warning(
            "answer store %s failed its sanity scan (%s); quarantined to %s "
            "and rebuilding empty",
            self.path,
            reason,
            target,
        )

    def _degrade(self, exc: Exception) -> None:
        """Switch to memory-only mode after a post-open SQLite failure."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover
                pass
            self._conn = None
        if not self.degraded:
            self.degraded = True
            logger.warning(
                "answer store %s hit a database error (%s); degrading to "
                "memory-only for the rest of this process",
                self.path,
                exc,
            )

    # -- TTL and eviction ---------------------------------------------------

    def _sweep_expired(self) -> None:
        if self._conn is None or self.ttl_seconds is None:
            return
        cutoff = self._clock() - self.ttl_seconds
        try:
            cursor = self._conn.execute(
                "DELETE FROM answers WHERE created_at <= ?", (cutoff,)
            )
            self.evictions_ttl += cursor.rowcount
        except sqlite3.Error as exc:
            self._degrade(exc)

    def _enforce_budget(self) -> None:
        """Evict min ``(last_used_at, cache_key)`` rows until within budget."""
        if self._conn is None or (self.max_rows is None and self.max_bytes is None):
            return
        try:
            while True:
                rows, total = self._conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(byte_size), 0) FROM answers"
                ).fetchone()
                over_rows = self.max_rows is not None and rows > self.max_rows
                over_bytes = self.max_bytes is not None and total > self.max_bytes
                if not (over_rows or over_bytes) or rows == 0:
                    return
                victim = self._conn.execute(
                    "SELECT cache_key FROM answers "
                    "ORDER BY last_used_at, cache_key LIMIT 1"
                ).fetchone()
                self._conn.execute(
                    "DELETE FROM answers WHERE cache_key = ?", (victim[0],)
                )
                self._memory.pop(victim[0], None)
                self.evictions_budget += 1
        except sqlite3.Error as exc:
            self._degrade(exc)

    def _fetch_live(self, cache_key: str) -> tuple[str, float] | None:
        """Unexpired disk row ``(blob, created_at)`` for a key, or None.

        Applies TTL lazily so an expired row never answers a lookup even
        before the next open-time sweep.
        """
        if self._conn is None:
            return None
        row = self._conn.execute(
            "SELECT assignments, created_at FROM answers "
            "WHERE cache_key = ? AND fingerprint = ? AND schema_version = ?",
            (cache_key, self.fingerprint, STORE_SCHEMA_VERSION),
        ).fetchone()
        if row is None:
            return None
        if (
            self.ttl_seconds is not None
            and row[1] + self.ttl_seconds <= self._clock()
        ):
            self._conn.execute(
                "DELETE FROM answers WHERE cache_key = ?", (cache_key,)
            )
            self.evictions_ttl += 1
            return None
        return row

    def _memory_live(self, cache_key: str) -> tuple[Assignment, ...] | None:
        """Unexpired memory-layer entry, applying TTL lazily like disk."""
        entry = self._memory.get(cache_key)
        if entry is None:
            return None
        if (
            self.ttl_seconds is not None
            and entry[1] + self.ttl_seconds <= self._clock()
        ):
            del self._memory[cache_key]
            return None
        return entry[0]

    # -- the HITCache interface --------------------------------------------

    def lookup(self, hit: HIT) -> tuple[Assignment, ...] | None:
        """Memory-then-disk lookup; a disk hit is promoted into memory.

        Repeat lookups return the *same* tuple object (immutability
        contract of :mod:`repro.hits.cache`).
        """
        key = hit.cache_key
        cached = self._memory_live(key)
        if cached is not None:
            self.hits += 1
            return cached
        try:
            row = self._fetch_live(key)
        except sqlite3.Error as exc:
            self._degrade(exc)
            row = None
        if row is None:
            self.misses += 1
            return None
        assignments, problem = _replayable(row[0], hit.payloads)
        if problem is not None:
            # A structurally valid DB holding an unreadable blob, or answers
            # to questions this HIT does not ask (ids written under an older
            # encoding): drop the row and treat as a miss rather than
            # poisoning the engine.
            logger.warning("answer store row %r %s; dropping it", key, problem)
            try:
                self._conn.execute(
                    "DELETE FROM answers WHERE cache_key = ?", (key,)
                )
            except sqlite3.Error as db_exc:
                self._degrade(db_exc)
            self.misses += 1
            return None
        try:
            self._conn.execute(
                "UPDATE answers SET last_used_at = ? WHERE cache_key = ? "
                "AND fingerprint = ? AND schema_version = ?",
                (self._clock(), key, self.fingerprint, STORE_SCHEMA_VERSION),
            )
        except sqlite3.Error as exc:
            self._degrade(exc)
        self._memory[key] = (assignments, row[1])
        self.hits += 1
        self.persistent_hits += 1
        self.assignments_reused += len(assignments)
        return assignments

    def store(self, hit: HIT, assignments: Sequence[Assignment]) -> None:
        """Write-through: memory layer plus (unless degraded) the DB."""
        key = hit.cache_key
        stored = tuple(assignments)
        now = self._clock()
        self._memory[key] = (stored, now)
        if self._conn is None:
            return
        try:
            blob = _encode_assignments(stored)
        except (TypeError, ValueError) as exc:
            # An answer value JSON can't carry: keep the entry in-process
            # only (the plain task cache's behavior) rather than failing
            # the query or poisoning the DB.
            logger.warning(
                "answer store cannot serialize %r (%s); keeping it "
                "memory-only",
                key,
                exc,
            )
            return
        try:
            self._conn.execute(
                "INSERT OR REPLACE INTO answers (cache_key, fingerprint, "
                "schema_version, assignments, assignment_count, byte_size, "
                "created_at, last_used_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    self.fingerprint,
                    STORE_SCHEMA_VERSION,
                    blob,
                    len(stored),
                    len(blob) + len(key),
                    now,
                    now,
                ),
            )
        except sqlite3.Error as exc:
            self._degrade(exc)
            return
        self._enforce_budget()

    def contains_key(self, cache_key: str, payloads: Sequence[Payload] = ()) -> bool:
        """Accounting-free peek, TTL-aware.

        Contract (relied on by budget pre-flight,
        :meth:`~repro.hits.manager.TaskManager.projected_new_assignments`):
        ``contains_key(k, payloads) is True`` ⇔ an immediately following
        lookup of the HIT built from ``payloads`` (key ``k``) would hit —
        so pre-flight never projects savings an expired, evicted,
        undecodable or stale row can't deliver. A disk row is checked
        against ``payloads`` exactly as :meth:`lookup` checks it.
        """
        if self._memory_live(cache_key) is not None:
            return True
        try:
            row = self._fetch_live(cache_key)
        except sqlite3.Error as exc:
            self._degrade(exc)
            return False
        return row is not None and _replayable(row[0], payloads)[1] is None

    # -- TaskCache parity ----------------------------------------------------

    def __len__(self) -> int:
        """Live rows visible to this store (memory-only entries included)."""
        keys = set(self._memory)
        if self._conn is not None:
            try:
                keys.update(
                    row[0]
                    for row in self._conn.execute(
                        "SELECT cache_key FROM answers WHERE fingerprint = ? "
                        "AND schema_version = ?",
                        (self.fingerprint, STORE_SCHEMA_VERSION),
                    )
                )
            except sqlite3.Error as exc:
                self._degrade(exc)
        return len(keys)

    def clear(self) -> None:
        """Drop all rows (every fingerprint/version) and reset counters."""
        self._memory.clear()
        if self._conn is not None:
            try:
                self._conn.execute("DELETE FROM answers")
            except sqlite3.Error as exc:
                self._degrade(exc)
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0
        self.assignments_reused = 0
        self.evictions_ttl = 0
        self.evictions_budget = 0

    # -- lifecycle & stats ---------------------------------------------------

    def close(self) -> None:
        """Checkpoint and close the connection (the store object stays
        usable as a memory-only cache afterwards; reopen by constructing a
        new store on the same path)."""
        if self._conn is not None:
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover
                pass
            self._conn = None

    def row_count(self) -> int:
        """Rows on disk across all fingerprints/versions (0 if degraded)."""
        if self._conn is None:
            return 0
        try:
            return self._conn.execute(
                "SELECT COUNT(*) FROM answers"
            ).fetchone()[0]
        except sqlite3.Error as exc:
            self._degrade(exc)
            return 0

    def byte_size(self) -> int:
        """Payload bytes on disk across all fingerprints/versions."""
        if self._conn is None:
            return 0
        try:
            return self._conn.execute(
                "SELECT COALESCE(SUM(byte_size), 0) FROM answers"
            ).fetchone()[0]
        except sqlite3.Error as exc:
            self._degrade(exc)
            return 0

    def stats(self) -> dict[str, object]:
        """Counter snapshot (engine takes per-query deltas of these)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "persistent_hits": self.persistent_hits,
            "assignments_reused": self.assignments_reused,
            "evictions_ttl": self.evictions_ttl,
            "evictions_budget": self.evictions_budget,
            "rebuilds": self.rebuilds,
            "degraded": self.degraded,
            "rows": self.row_count(),
            "bytes": self.byte_size(),
        }


StoreSpec = Union[PersistentAnswerStore, StoreConfig, str, Path]
"""Anything ``Qurk(store=)`` / ``EngineSession(store=)`` accepts."""


def open_store(spec: StoreSpec, *, clock: Callable[[], float] = time.time) -> PersistentAnswerStore:
    """Resolve a store spec into an opened :class:`PersistentAnswerStore`."""
    if isinstance(spec, PersistentAnswerStore):
        return spec
    if isinstance(spec, StoreConfig):
        return PersistentAnswerStore(
            spec.path,
            ttl_seconds=spec.ttl_seconds,
            max_rows=spec.max_rows,
            max_bytes=spec.max_bytes,
            fingerprint=combiner_fingerprint(spec.combiner),
            clock=clock,
        )
    if isinstance(spec, (str, Path)):
        return PersistentAnswerStore(spec, clock=clock)
    raise StoreConfigError(
        f"store must be a PersistentAnswerStore, StoreConfig, or path; "
        f"got {type(spec).__name__}"
    )


__all__ = [
    "COMBINER_SEMANTICS_VERSION",
    "PersistentAnswerStore",
    "STORE_SCHEMA_VERSION",
    "StoreConfig",
    "StoreSpec",
    "combiner_fingerprint",
    "open_store",
]
