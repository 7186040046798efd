"""Tests for the seeded randomness plumbing."""

import pytest

from repro.util.rng import RandomSource, child_seed, spawn_rng


def test_same_seed_same_stream():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = RandomSource(1)
    b = RandomSource(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_child_seed_is_stable_and_label_sensitive():
    assert child_seed(7, "workers") == child_seed(7, "workers")
    assert child_seed(7, "workers") != child_seed(7, "latency")
    assert child_seed(7, "a", 1) != child_seed(7, "a", 2)


def test_child_streams_are_independent():
    parent = RandomSource(9)
    left = parent.child("left")
    right = parent.child("right")
    assert [left.random() for _ in range(5)] != [right.random() for _ in range(5)]


def test_spawn_rng_matches_child():
    assert spawn_rng(5, "x").random() == RandomSource(child_seed(5, "x")).random()


def test_chance_extremes():
    rng = RandomSource(0)
    assert rng.chance(1.0) is True
    assert rng.chance(0.0) is False
    assert rng.chance(1.5) is True
    assert rng.chance(-0.5) is False


def test_chance_rate_approximates_probability():
    rng = RandomSource(3)
    hits = sum(1 for _ in range(20000) if rng.chance(0.3))
    assert 0.27 < hits / 20000 < 0.33


def test_randint_bounds():
    rng = RandomSource(1)
    values = {rng.randint(1, 3) for _ in range(200)}
    assert values == {1, 2, 3}


def test_exponential_positive_and_rate_scaling():
    rng = RandomSource(2)
    fast = [rng.exponential(10.0) for _ in range(2000)]
    slow = [rng.exponential(0.1) for _ in range(2000)]
    assert all(v > 0 for v in fast)
    assert sum(fast) / len(fast) < sum(slow) / len(slow)


def test_exponential_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        RandomSource(0).exponential(0.0)


def test_weighted_index_distribution():
    rng = RandomSource(4)
    counts = [0, 0]
    for _ in range(10000):
        counts[rng.weighted_index([3.0, 1.0])] += 1
    assert 0.70 < counts[0] / 10000 < 0.80


def test_weighted_index_rejects_zero_weights():
    with pytest.raises(ValueError):
        RandomSource(0).weighted_index([0.0, 0.0])


def test_zipf_index_favors_low_ranks():
    rng = RandomSource(5)
    counts = [0] * 10
    for _ in range(10000):
        counts[rng.zipf_index(10)] += 1
    assert counts[0] > counts[5] > 0
    assert counts[0] > counts[9]


def test_shuffled_preserves_elements():
    rng = RandomSource(6)
    items = list(range(30))
    shuffled = rng.shuffled(items)
    assert sorted(shuffled) == items
    assert items == list(range(30))  # original untouched


def test_sample_without_replacement():
    rng = RandomSource(7)
    sample = rng.sample(list(range(10)), 4)
    assert len(sample) == len(set(sample)) == 4


# -- stream preservation against a linear-scan oracle ----------------------


def _linear_scan_index(rng: RandomSource, weights) -> int:
    """The textbook weighted pick: one ``random()`` draw scaled by the
    builtin-``sum`` total, then the first index whose running sum exceeds
    it. The bisecting implementation must agree draw for draw."""
    point = rng.random() * float(sum(weights))
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if point < acc:
            return index
    return len(weights) - 1


def test_weighted_index_fast_matches_reference():
    weights = [1.0 / (i + 1) ** 0.9 for i in range(37)]
    fast, oracle = RandomSource(9), RandomSource(9)
    picks = [fast.weighted_index(weights) for _ in range(501)]
    assert picks == [_linear_scan_index(oracle, weights) for _ in range(501)]
    assert len(set(picks)) > 10


def test_zipf_index_fast_matches_reference():
    weights = [1.0 / (i + 1) ** 0.9 for i in range(40)]
    fast, oracle = RandomSource(12), RandomSource(12)
    picks = [fast.zipf_index(40, 0.9) for _ in range(500)]
    assert picks == [_linear_scan_index(oracle, weights) for _ in range(500)]


def test_weighted_index_cumulative_matches_weighted_index():
    from itertools import accumulate

    weights = [0.5, 2.0, 0.25, 3.0]
    a = RandomSource(5)
    b = RandomSource(5)
    cumulative = list(accumulate(weights))
    for _ in range(200):
        assert a.weighted_index(weights) == b.weighted_index_cumulative(cumulative)


def test_weighted_index_cumulative_rejects_zero_total():
    with pytest.raises(ValueError):
        RandomSource(0).weighted_index_cumulative([0.0, 0.0])
    with pytest.raises(ValueError):
        RandomSource(0).weighted_index_cumulative([])


def test_child_seed_memoization_is_transparent():
    import hashlib

    from repro.util.rng import child_seed_from_material

    first = child_seed(3, "a", 1, "b")
    again = child_seed(3, "a", 1, "b")
    digest = hashlib.sha256(b"3:a:1:b").digest()
    uncached = int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF
    assert first == again == uncached
    assert child_seed_from_material("3:a:1:b") == uncached


# ---------------------------------------------------------------------------
# stable_seed: the PYTHONHASHSEED-independent replacement for hash(str)
# ---------------------------------------------------------------------------


def test_stable_seed_pinned_value():
    """blake2b is fully specified, so the mapping is pinned forever — a
    changed value here means seeds (and every experiment derived from them)
    silently shifted."""
    from repro.util.rng import stable_seed

    assert stable_seed("Q3") == 3146864962887348789
    assert [stable_seed(q) % 100 for q in ("Q1", "Q2", "Q3", "Q4", "Q5")] == [
        48, 20, 89, 14, 92,
    ]


def test_stable_seed_is_63_bit_and_distinct():
    from repro.util.rng import stable_seed

    seeds = {stable_seed(f"query-{i}") for i in range(200)}
    assert len(seeds) == 200
    assert all(0 <= seed < 2**63 for seed in seeds)


def test_stable_seed_survives_hash_randomization():
    """Mirror of test_cache_key_stable_across_processes for the fig6 seed
    derivation: a fresh interpreter under a different PYTHONHASHSEED
    computes the same seed hash(query_id) used to randomize per run
    (the RL001 bug class fixed in sort_experiments)."""
    import pathlib
    import subprocess
    import sys

    from repro.util.rng import stable_seed

    local = [(0 * 17 + stable_seed(q) % 100) for q in ("Q1", "Q2", "Q3")]
    script = (
        "from repro.util.rng import stable_seed\n"
        "print([0 * 17 + stable_seed(q) % 100 for q in ('Q1', 'Q2', 'Q3')], end='')\n"
    )
    for hashseed in ("0", "1", "424242"):
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed},
            cwd=pathlib.Path(__file__).parent.parent,
            check=True,
        )
        assert child.stdout == str(local), hashseed
