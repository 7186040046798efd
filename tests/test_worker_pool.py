"""Tests for worker profiles and the pool."""

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.pool import PoolConfig, WorkerPool
from repro.crowd.worker import make_reliable, make_sloppy, make_spammer
from repro.util.rng import RandomSource

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400)


def test_pool_config_fractions_must_sum():
    with pytest.raises(ValueError):
        PoolConfig(reliable_fraction=0.5, sloppy_fraction=0.2, spammer_fraction=0.2)


def test_pool_build_composition():
    pool = WorkerPool.build(PoolConfig(size=100), seed=1)
    counts = pool.archetype_counts()
    assert counts["reliable"] == 77
    assert counts["sloppy"] == 17
    assert counts["spammer"] == 6
    assert len(pool) == 100


def test_pool_is_deterministic():
    a = WorkerPool.build(seed=5)
    b = WorkerPool.build(seed=5)
    assert [w.worker_id for w in a.workers] == [w.worker_id for w in b.workers]
    assert [w.archetype for w in a.workers] == [w.archetype for w in b.workers]


def test_archetype_parameter_ranges():
    rng = RandomSource(0)
    reliable = make_reliable("r", rng.child("r"))
    sloppy = make_sloppy("s", rng.child("s"))
    spammer = make_spammer("x", rng.child("x"))
    assert reliable.filter_error < sloppy.filter_error
    assert reliable.join_miss < sloppy.join_miss
    assert spammer.is_spammer and not reliable.is_spammer
    assert spammer.spam_style in ("random", "always_yes", "always_no", "first_option")


def test_batch_factor_grows_and_caps():
    worker = make_reliable("r", RandomSource(1))
    assert worker.batch_factor(1) == 1.0
    assert worker.batch_factor(5) > 1.0
    assert worker.batch_factor(1000) == 3.0


def test_error_rate_capped():
    worker = make_sloppy("s", RandomSource(2))
    assert worker.error_rate(0.9, 1000) <= 0.95


def test_acceptance_probability_monotone():
    worker = make_reliable("r", RandomSource(3))
    easy = worker.acceptance_probability(5.0)
    hard = worker.acceptance_probability(60.0)
    assert easy > 0.9 > 0.1 > hard
    # Far enough past the threshold, exp overflows: the answer is still 0.
    assert worker.acceptance_probability(worker.effort_threshold + 1500.0) == 0.0


def test_pick_candidate_zipfian_concentration():
    pool = WorkerPool.build(PoolConfig(size=50), seed=4)
    rng = RandomSource(9)
    counts: dict[str, int] = {}
    for _ in range(5000):
        worker = pool.pick_candidate(rng)
        assert worker is not None
        counts[worker.worker_id] = counts.get(worker.worker_id, 0) + 1
    shares = sorted(counts.values(), reverse=True)
    # Zipfian: the top worker does far more than the median worker.
    assert shares[0] > 5 * shares[len(shares) // 2]


def test_pick_candidate_spammer_batch_affinity():
    pool = WorkerPool.build(PoolConfig(size=200, spammer_batch_affinity=0.2), seed=6)
    rng = RandomSource(10)
    spam_small = sum(
        1 for _ in range(4000) if pool.pick_candidate(rng, batch_units=1).is_spammer
    )
    spam_large = sum(
        1 for _ in range(4000) if pool.pick_candidate(rng, batch_units=25).is_spammer
    )
    assert spam_large > spam_small * 1.5


def test_pick_candidate_respects_exclusions():
    pool = WorkerPool.build(PoolConfig(size=10), seed=7)
    rng = RandomSource(11)
    all_ids = {worker.worker_id for worker in pool.workers}
    excluded = set(list(all_ids)[:9])
    for _ in range(20):
        worker = pool.pick_candidate(rng, exclude=excluded)
        assert worker is not None
        assert worker.worker_id not in excluded
    assert pool.pick_candidate(rng, exclude=all_ids) is None


def test_ban_removes_workers_from_pickup():
    pool = WorkerPool.build(PoolConfig(size=10), seed=8)
    rng = RandomSource(12)
    victim = pool.workers[0].worker_id
    pool.ban([victim])
    assert victim in pool.banned
    for _ in range(200):
        worker = pool.pick_candidate(rng)
        assert worker.worker_id != victim


def test_by_id():
    pool = WorkerPool.build(PoolConfig(size=10), seed=9)
    worker = pool.workers[3]
    assert pool.by_id(worker.worker_id) is worker
    with pytest.raises(KeyError):
        pool.by_id("nobody")


@lru_cache(maxsize=1)
def _workers():
    """300 workers of every archetype; a test pool takes a prefix."""
    return tuple(WorkerPool.build(PoolConfig(size=300), seed=21).workers)


class _FixedDraw:
    """A stand-in stream whose every ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    @property
    def raw(self):
        return self

    def random(self):
        self.draws += 1
        return self.u


def _rebuilt_table(pool, batch_units, exclude):
    """The eligible workers and their weights with ``exclude`` removed, in
    pool order: the table an exclusion pick is defined on."""
    workers, weights = pool._candidate_table(batch_units)[:2]
    kept = [(w, x) for w, x in zip(workers, weights) if w.worker_id not in exclude]
    return [w for w, _ in kept], [x for _, x in kept]


def _rebuilt_pick(pool, batch_units, exclude, u):
    """The reference exclusion pick: rebuild the prefix sums and the
    builtin-``sum`` total without the excluded workers, then bisect."""
    workers, weights = _rebuilt_table(pool, batch_units, exclude)
    if not workers:
        return None
    index = bisect_right(list(accumulate(weights)), u * float(sum(weights)))
    return workers[min(index, len(workers) - 1)]


@PROPERTY
@given(st.data())
def test_exclusion_pick_matches_rebuilt_table(data):
    """``pick_candidate`` with exclusions bisects the cached table; it must
    return exactly the worker the rebuilt table gives for the same draw,
    and draw once unless every worker is excluded. Draws of 0.0, of
    1 − 2⁻⁵³ and at (or one ulp either side of) a rebuilt boundary land
    inside the rounding margin, where the pick falls back to the rebuild."""
    size = data.draw(st.integers(3, 300), label="size")
    pool = WorkerPool(_workers()[:size], PoolConfig(size=size), seed=0)
    ids = [worker.worker_id for worker in pool.workers]
    pool.ban(data.draw(st.lists(st.sampled_from(ids), max_size=3), label="banned"))
    batch_units = data.draw(st.integers(1, 25), label="batch_units")
    exclude = set(
        data.draw(
            st.one_of(
                st.lists(st.sampled_from(ids[:12]), max_size=5),  # Zipf head
                st.lists(st.sampled_from(ids), max_size=8),
                st.sampled_from(ids).map(lambda keep: [i for i in ids if i != keep]),
                st.just(ids),
            ),
            label="exclude",
        )
    )
    strangers = st.lists(st.sampled_from(["W9999", "nobody"]), max_size=2)
    exclude |= set(data.draw(strangers, label="not in the pool"))
    workers, weights = _rebuilt_table(pool, batch_units, exclude)
    u = data.draw(
        st.one_of(
            st.sampled_from([0.0, 1.0 - 2.0**-53]),
            st.floats(0.0, 1.0, exclude_max=True),
            st.just(None),
        ),
        label="u",
    )
    if u is None:
        # A point on a rebuilt boundary, or one ulp either side of it.
        if not workers:
            return
        cumulative = list(accumulate(weights))
        boundary = cumulative[data.draw(st.integers(0, len(cumulative) - 1))]
        u = boundary / float(sum(weights))
        u = data.draw(
            st.sampled_from([u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)])
        )
        u = min(u, 1.0 - 2.0**-53)
    stream = _FixedDraw(u)
    picked = pool.pick_candidate(stream, batch_units, exclude)
    assert picked is _rebuilt_pick(pool, batch_units, exclude, u)
    assert stream.draws == (1 if workers else 0)
