"""Tests for the simulated marketplace."""

import pytest

from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.crowd.latency import LatencyConfig, LatencyModel
from repro.hits.compiler import HITCompiler
from repro.hits.hit import HIT, CompareGroup, ComparePayload, FilterPayload, FilterQuestion


def filter_hits(n_hits: int, assignments: int = 5, hit_prefix: str = "h") -> list[HIT]:
    compiler = HITCompiler()
    hits = []
    for i in range(n_hits):
        hit = HIT(
            hit_id=f"{hit_prefix}{i}",
            payloads=(FilterPayload("flt", (FilterQuestion(f"item{i}"),)),),
            assignments_requested=assignments,
        )
        compiler.compile(hit)
        hits.append(hit)
    return hits


@pytest.fixture
def truth() -> GroundTruth:
    t = GroundTruth()
    t.add_filter_task("flt", {f"item{i}": i % 2 == 0 for i in range(50)})
    return t


def test_all_assignments_complete(truth):
    market = SimulatedMarketplace(truth, seed=1)
    assignments = market.post_hit_group(filter_hits(10), group_id="g1")
    assert len(assignments) == 50
    assert market.stats.assignments_completed == 50
    assert market.stats.uncompleted_hits == 0


def test_clock_advances(truth):
    market = SimulatedMarketplace(truth, seed=2)
    before = market.clock_seconds
    market.post_hit_group(filter_hits(5), group_id="g")
    assert market.clock_seconds > before


def test_no_worker_does_same_hit_twice(truth):
    market = SimulatedMarketplace(truth, seed=3)
    assignments = market.post_hit_group(filter_hits(4, assignments=8), group_id="g")
    per_hit: dict[str, set[str]] = {}
    for assignment in assignments:
        workers = per_hit.setdefault(assignment.hit_id, set())
        assert assignment.worker_id not in workers
        workers.add(assignment.worker_id)


def test_determinism(truth):
    a = SimulatedMarketplace(truth, seed=4).post_hit_group(filter_hits(5), "g")
    b = SimulatedMarketplace(truth, seed=4).post_hit_group(filter_hits(5), "g")
    assert [(x.worker_id, x.submit_time) for x in a] == [
        (y.worker_id, y.submit_time) for y in b
    ]


def test_different_seeds_differ(truth):
    a = SimulatedMarketplace(truth, seed=5).post_hit_group(filter_hits(5), "g")
    b = SimulatedMarketplace(truth, seed=6).post_hit_group(filter_hits(5), "g")
    assert [x.worker_id for x in a] != [y.worker_id for y in b]


def test_oversized_batch_goes_uncompleted(truth):
    """A compare group of 20 items is beyond every worker's threshold —
    the §4.2.2 refusal wall."""
    t = GroundTruth()
    t.add_rank_task("rank", {f"i{k}": float(k) for k in range(20)})
    market = SimulatedMarketplace(t, seed=7)
    compiler = HITCompiler()
    hit = HIT(
        hit_id="big",
        payloads=(
            ComparePayload("rank", (CompareGroup(tuple(f"i{k}" for k in range(20))),)),
        ),
        assignments_requested=5,
    )
    compiler.compile(hit)
    assert hit.effort_seconds >= 50
    assignments = market.post_hit_group([hit], group_id="g")
    assert len(assignments) < 5
    assert market.stats.refusals > 0


def test_reasonable_batch_completes(truth):
    t = GroundTruth()
    t.add_rank_task("rank", {f"i{k}": float(k) for k in range(5)})
    market = SimulatedMarketplace(t, seed=8)
    compiler = HITCompiler()
    hit = HIT(
        hit_id="ok",
        payloads=(
            ComparePayload("rank", (CompareGroup(tuple(f"i{k}" for k in range(5))),)),
        ),
        assignments_requested=5,
    )
    compiler.compile(hit)
    assert len(market.post_hit_group([hit], "g")) == 5


def test_empty_group(truth):
    market = SimulatedMarketplace(truth, seed=9)
    assert market.post_hit_group([], "g") == []


def test_advance_clock(truth):
    market = SimulatedMarketplace(truth, seed=10)
    market.advance_clock(100.0)
    assert market.clock_seconds == 100.0
    with pytest.raises(ValueError):
        market.advance_clock(-1.0)


def test_worker_assignment_counts_tracked(truth):
    market = SimulatedMarketplace(truth, seed=11)
    market.post_hit_group(filter_hits(20), "g")
    counts = market.stats.worker_assignment_counts
    assert sum(counts.values()) == 100
    # Zipfian concentration: busiest worker well above the median.
    busiest = max(counts.values())
    assert busiest >= 5


def test_time_of_day_accepted_as_string(truth):
    market = SimulatedMarketplace(truth, seed=12, time_of_day="evening")
    from repro.crowd.latency import TimeOfDay

    assert market.time_of_day is TimeOfDay.EVENING


def test_considerations_per_assignment(truth):
    market = SimulatedMarketplace(truth, seed=13)
    # Nothing completed yet: the ratio is defined as 0, not a crash.
    assert market.stats.considerations_per_assignment == 0.0
    market.post_hit_group(filter_hits(10), "g")
    stats = market.stats
    ratio = stats.considerations_per_assignment
    assert ratio == stats.considerations / stats.assignments_completed
    # Every completion takes at least one consideration.
    assert ratio >= 1.0


def test_considerations_per_assignment_counts_refusals():
    """Oversized batches burn considerations without completing work."""
    t = GroundTruth()
    t.add_rank_task("rank", {f"i{k}": float(k) for k in range(20)})
    market = SimulatedMarketplace(t, seed=14)
    compiler = HITCompiler()
    hit = HIT(
        hit_id="big",
        payloads=(
            ComparePayload("rank", (CompareGroup(tuple(f"i{k}" for k in range(20))),)),
        ),
        assignments_requested=5,
    )
    compiler.compile(hit)
    market.post_hit_group([hit], "g")
    assert market.stats.refusals > 0
    assert market.stats.considerations > market.stats.assignments_completed
    if market.stats.assignments_completed:
        assert market.stats.considerations_per_assignment > 1.0


DISPATCH_SEED_15_SHA256 = "e171f2479ebd9e82e185fe20aff7d7f8d46c5276ff9b93f034f74f3831d08056"
"""sha256 of ``repr`` of the seed-15, 12-HIT assignment tuples below, recorded
at commit 2275d16, where the fast and the retired reference dispatch loops
emitted exactly these assignments."""


def test_fast_and_reference_dispatch_agree(truth):
    """The dispatch loop still emits the assignments the retired reference
    loop emitted for this group: same ids, workers, answers, and times."""
    import hashlib

    assignments = SimulatedMarketplace(truth, seed=15).post_hit_group(
        filter_hits(12), "g"
    )
    tuples = [
        (a.assignment_id, a.hit_id, a.worker_id, a.answers, a.accept_time, a.submit_time)
        for a in assignments
    ]
    assert len(tuples) == 60
    assert tuples[0] == (
        "asn-000001", "h1", "W0095", {"flt:filter:item1": False},
        0.16270337680219163, 3.932132926530527,
    )
    assert tuples[-1] == (
        "asn-000060", "h3", "W0023", {"flt:filter:item3": False},
        246.55572450762335, 250.87104960140204,
    )
    assert hashlib.sha256(repr(tuples).encode()).hexdigest() == DISPATCH_SEED_15_SHA256
