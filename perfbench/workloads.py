"""The benchmark's three workloads and their per-execution output checks.

Every execution builds a fresh marketplace, engine or session, and store
file; only the generated dataset is reused. :class:`Phases` splits an
execution into set-up (construction and registration) and the timed part,
and switches the tracer on for exactly the timed part.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from clock import Region, SpeedClock
from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.core.session import EngineSession
from repro.crowd import SimulatedMarketplace
from repro.crowd.latency import LatencyConfig, LatencyModel
from repro.datasets.movie import MovieDataset, movie_dataset
from repro.experiments.end_to_end import QUERY_NO_FILTER, QUERY_WITH_FILTER
from repro.experiments.session_workload import variant_configs
from repro.joins.batching import JoinInterface

DEFAULT_TOGGLES = {
    "REPRO_FASTPATH": "1",
    "REPRO_PIPELINE": "1",
    "REPRO_ADAPT": "1",
    "REPRO_SORTSCALE": "1",
    "REPRO_RESILIENCE": "1",
    "REPRO_STORE": "1",
    "REPRO_VECTOR": "0",
}
"""Every ``REPRO_*`` toggle at its documented default; workloads override."""

OPTIMIZED = ExecutionConfig(
    join_interface=JoinInterface.SMART,
    grid_rows=5,
    grid_cols=5,
    use_feature_filters=True,
    generative_batch_size=5,
    sort_method="rate",
    compare_group_size=5,
    rate_batch_size=5,
)
UNOPTIMIZED = ExecutionConfig(
    join_interface=JoinInterface.SIMPLE,
    use_feature_filters=False,
    sort_method="compare",
    compare_group_size=5,
)


class Phases:
    """Records one execution's set-up and timed regions on a
    :class:`SpeedClock` (an unstarted clock gives raw seconds)."""

    def __init__(self, clock: SpeedClock | None = None, tracer=None) -> None:
        self.clock = clock or SpeedClock()
        self.tracer = tracer
        self.setup_regions: list[Region] = []
        self.timed_regions: list[Region] = []
        self.cpu_s = 0.0

    @contextmanager
    def setup(self):
        mark = self.clock.mark()
        try:
            yield
        finally:
            self.setup_regions.append(self.clock.region(mark))

    @contextmanager
    def timed(self):
        mark, cpu = self.clock.mark(), time.process_time()
        if self.tracer is not None:
            self.tracer.active = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.active = False
            region = self.clock.region(mark)
            self.cpu_s += time.process_time() - cpu - region.probe_s
            self.timed_regions.append(region)

    @property
    def wall_s(self) -> float:
        return sum(region.net_s for region in self.timed_regions)

    def normalised(self) -> tuple[float, float]:
        """(timed, set-up) seconds at the clock's reference speed; call
        once the clock has sampled past the end of the execution."""
        return (
            sum(self.clock.normalised(region) for region in self.timed_regions),
            sum(self.clock.normalised(region) for region in self.setup_regions),
        )


@dataclass
class Outcome:
    """What one execution produced, plus every check it failed."""

    digest: str
    hits: int
    assignments: int
    dollars: float
    virtual_latency_s: float
    rows: int
    precision: float
    recall: float
    layer_counts: dict[str, float]
    problems: list[str] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """The values that must repeat exactly for the same input."""
        return (self.digest, self.hits, self.assignments, self.dollars, self.rows)


def _digest(row_lists) -> str:
    blob = json.dumps(row_lists, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _quality(data: MovieDataset, results) -> tuple[float, float]:
    """Micro-averaged precision and per-query recall against the truth."""
    image_of = {row["name"]: row["img"] for row in data.actors}
    matches = set(data.matches)
    returned = correct = found = 0
    for result in results:
        pairs = [(image_of[row["a.name"]], row["s.img"]) for row in result.rows]
        returned += len(pairs)
        correct += sum(pair in matches for pair in pairs)
        found += len(set(pairs) & matches)
    precision = correct / returned if returned else 0.0
    recall = found / (len(matches) * len(results)) if matches else 0.0
    return precision, recall


def _expect_equal(problems: list[str], what: str, *values) -> None:
    first = values[0]
    for value in values[1:]:
        same = (
            math.isclose(first, value, rel_tol=1e-9, abs_tol=1e-9)
            if isinstance(first, float) or isinstance(value, float)
            else first == value
        )
        if not same:
            problems.append(f"{what}: {values}")
            return


def _marketplace_counts(markets) -> dict[str, float]:
    groups = sum(m.stats.groups_submitted for m in markets)
    considerations = sum(m.stats.considerations for m in markets)
    completed = sum(m.stats.assignments_completed for m in markets)
    return {
        "crowd.marketplace.groups": groups,
        "crowd.marketplace.hits_posted": sum(m.stats.hits_posted for m in markets),
        "crowd.marketplace.considerations": considerations,
        "crowd.marketplace.accept_rate": completed / considerations if considerations else 0.0,
    }


class Workload:
    """One named workload: inputs from a seed, one execution, its checks."""

    name: str
    why: str
    toggles: dict[str, str] = {}
    inputs_per_run = 8
    precision_floor = 0.5
    recall_floor = 0.4

    def env(self) -> dict[str, str]:
        return {**DEFAULT_TOGGLES, **self.toggles}

    def inputs(self, seed: int) -> MovieDataset:
        raise NotImplementedError

    def execute(
        self, data: MovieDataset, seed: int, workdir: Path, phases: Phases
    ) -> Outcome:
        raise NotImplementedError

    def check_quality(self, outcome: Outcome) -> None:
        if outcome.precision < self.precision_floor:
            outcome.problems.append(
                f"precision {outcome.precision:.4f} < floor {self.precision_floor}"
            )
        if outcome.recall < self.recall_floor:
            outcome.problems.append(
                f"recall {outcome.recall:.4f} < floor {self.recall_floor}"
            )


class Table5(Workload):
    """One Table-5 plan through ``Qurk.execute`` on the movie dataset."""

    def __init__(self, name, why, config, query, scale, vector=False, recall_floor=0.4,
                 inputs_per_run=8):
        self.name = name
        self.why = why
        self.config = config
        self.query = query
        self.scale = scale
        self.toggles = {"REPRO_VECTOR": "1" if vector else "0"}
        self.recall_floor = recall_floor
        self.inputs_per_run = inputs_per_run

    def inputs(self, seed: int) -> MovieDataset:
        return movie_dataset(seed=seed, scale=self.scale)

    def execute(self, data, seed, workdir, phases) -> Outcome:
        with phases.setup():
            # Posting deadline scaled with the data so every group completes.
            latency = LatencyModel(LatencyConfig(deadline_hours=8.0 * self.scale))
            market = SimulatedMarketplace(data.truth, seed=seed, latency=latency)
            engine = Qurk(platform=market, config=self.config)
            engine.register_table(data.actors)
            engine.register_table(data.scenes)
            engine.define(data.task_dsl)
        with phases.timed():
            result = engine.execute(self.query)

        problems: list[str] = []
        stats, ledger = market.stats, engine.ledger
        _expect_equal(
            problems, "hits (result, ledger, marketplace)",
            result.hit_count, ledger.total_hits,
            stats.hits_posted - stats.uncompleted_hits,
        )
        _expect_equal(
            problems, "assignments (result, ledger, marketplace)",
            result.assignment_count, ledger.total_assignments,
            stats.assignments_completed, result.marketplace_stats.assignments_completed,
        )
        _expect_equal(
            problems, "dollars (result, ledger, marketplace)",
            result.total_cost, ledger.total_cost,
            ledger.pricing.cost(stats.assignments_completed),
        )
        precision, recall = _quality(data, [result])
        summary = result.pipeline_summary or {}
        makespan = summary.get("makespan_seconds", 0.0)
        counts = _marketplace_counts([market])
        counts.update({
            "hits.cache.lookups": 0,
            "hits.cache.hit_rate": 0.0,
            "hits.store.lookups": 0,
            "hits.store.persistent_hit_rate": 0.0,
            "hits.store.bytes": 0,
            "core.session.cross_cache_hits": 0,
            "core.scheduler.overlap": summary.get("serial_latency_seconds", 0.0) / makespan
            if makespan else 1.0,
        })
        outcome = Outcome(
            digest=_digest(result.as_dicts()),
            hits=result.hit_count,
            assignments=result.assignment_count,
            dollars=result.total_cost,
            virtual_latency_s=result.elapsed_seconds,
            rows=len(result),
            precision=precision,
            recall=recall,
            layer_counts=counts,
            problems=problems,
        )
        self.check_quality(outcome)
        return outcome


class SessionRestart(Workload):
    """A cold multi-query session on a fresh store file, then a warm one."""

    inputs_per_run = 16
    """The crowd makespan has a long tail between inputs, so the run
    averages over twice as many."""

    def __init__(self, name, why, queries=32, scale=1):
        self.name = name
        self.why = why
        self.queries = queries
        self.scale = scale
        self._executions = 0

    def inputs(self, seed: int) -> MovieDataset:
        return movie_dataset(seed=seed, scale=self.scale)

    def _pass(self, data, seed, path, phases):
        with phases.setup():
            market = SimulatedMarketplace(data.truth, seed=seed)
            session = EngineSession(platform=market, store=path)
            session.register_table(data.actors)
            session.register_table(data.scenes)
            session.define(data.task_dsl)
        variants = variant_configs()
        with phases.timed():
            for index in range(self.queries):
                label, config = variants[index % len(variants)]
                session.submit(QUERY_WITH_FILTER, config=config, label=label)
            outcome = session.run()
        store = session.store
        store_counts = {
            "lookups": store.hits + store.misses,
            "persistent_hits": store.persistent_hits,
            "bytes": store.byte_size(),
        }
        with phases.timed():
            store.close()
        return market, outcome, store_counts

    def execute(self, data, seed, workdir, phases) -> Outcome:
        self._executions += 1
        path = workdir / f"session-{self._executions}.db"
        try:
            cold_market, cold, cold_store = self._pass(data, seed, path, phases)
            warm_market, warm, warm_store = self._pass(data, seed, path, phases)
        finally:
            for suffix in ("", "-wal", "-shm"):
                Path(f"{path}{suffix}").unlink(missing_ok=True)

        problems: list[str] = []
        for label, run in (("cold", cold), ("warm", warm)):
            if run.stats.failed:
                problems.append(f"{label} pass: {run.stats.failed} queries failed: {run.errors}")
        if problems:
            raise RuntimeError("; ".join(problems))
        cold_results = [q.result for q in cold.queries]
        warm_results = [q.result for q in warm.queries]
        pricing = cold.queries[0].ledger.pricing
        stats = cold_market.stats
        _expect_equal(
            problems, "cold hits (ledgers, marketplace)",
            sum(q.ledger.total_hits for q in cold.queries),
            sum(r.hit_count for r in cold_results),
            stats.hits_posted - stats.uncompleted_hits,
        )
        _expect_equal(
            problems, "cold assignments (ledgers, marketplace)",
            sum(q.ledger.total_assignments for q in cold.queries),
            sum(r.assignment_count for r in cold_results),
            stats.assignments_completed,
        )
        cold_dollars = sum(r.total_cost for r in cold_results)
        _expect_equal(
            problems, "cold dollars (ledgers, marketplace)",
            cold_dollars, pricing.cost(stats.assignments_completed),
        )
        _expect_equal(problems, "warm hits posted", warm_market.stats.hits_posted, 0)
        _expect_equal(
            problems, "warm dollars", sum(r.total_cost for r in warm_results), 0.0
        )
        reused = warm.stats.store_summary["assignments_reused"]
        _expect_equal(problems, "warm reuse = cold assignments", reused, stats.assignments_completed)
        _expect_equal(
            problems, "store cost_saved = reused x price",
            warm.stats.store_summary["cost_saved"], reused * pricing.per_assignment,
        )
        cold_rows = [r.as_dicts() for r in cold_results]
        if [r.as_dicts() for r in warm_results] != cold_rows:
            problems.append("warm rows differ from cold rows")

        precision, recall = _quality(data, cold_results)
        lookups = sum(
            q.cache_view.hits + q.cache_view.misses
            for run in (cold, warm) for q in run.queries
        )
        cache_hits = sum(q.cache_view.hits for run in (cold, warm) for q in run.queries)
        store_lookups = cold_store["lookups"] + warm_store["lookups"]
        counts = _marketplace_counts([cold_market, warm_market])
        counts.update({
            "hits.cache.lookups": lookups,
            "hits.cache.hit_rate": cache_hits / lookups if lookups else 0.0,
            "hits.store.lookups": store_lookups,
            "hits.store.persistent_hit_rate": (
                cold_store["persistent_hits"] + warm_store["persistent_hits"]
            ) / store_lookups if store_lookups else 0.0,
            "hits.store.bytes": warm_store["bytes"],
            "core.session.cross_cache_hits": cold.stats.cross_cache_hits
            + warm.stats.cross_cache_hits,
            "core.scheduler.overlap": cold.stats.overlap_speedup,
        })
        outcome = Outcome(
            digest=_digest(cold_rows),
            hits=stats.hits_posted + warm_market.stats.hits_posted,
            assignments=stats.assignments_completed + warm_market.stats.assignments_completed,
            dollars=cold_dollars,
            virtual_latency_s=cold.stats.makespan_seconds + warm.stats.makespan_seconds,
            rows=sum(len(r) for r in cold_results),
            precision=precision,
            recall=recall,
            layer_counts=counts,
            problems=problems,
        )
        self.check_quality(outcome)
        return outcome


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Table5(
            "t5_vector",
            "optimized Table-5 plan (Filter+Smart 5x5+Rate) at 64x under REPRO_VECTOR=1: "
            "the only workload running the numpy dispatch kernel; relational and vote "
            "handling lead",
            OPTIMIZED, QUERY_WITH_FILTER, scale=64, vector=True,
        ),
        Table5(
            "t5_unoptimized",
            "paper baseline plan (Simple join + Compare sort, no filter) at 4x: "
            "~5k single-pair HITs, per-HIT overhead leads and rows barely matter",
            UNOPTIMIZED, QUERY_NO_FILTER, scale=4, recall_floor=0.8,
            # A query's crowd makespan has a long tail between inputs; the
            # short executions let this run average over twice as many.
            inputs_per_run=16,
        ),
        SessionRestart(
            "session_restart",
            "32-query session cold on a fresh store file, then warm from disk: "
            "cache, store, session and planning carry load, the market is idle",
        ),
    )
}
