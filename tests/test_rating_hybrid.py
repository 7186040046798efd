"""Tests for rating aggregation and the hybrid sorter."""

import pytest

from repro.errors import QurkError
from repro.hits.hit import Vote
from repro.hits.vote_columns import VoteColumns
from repro.sorting.hybrid import (
    ConfidenceStrategy,
    HybridSorter,
    RandomStrategy,
    SlidingWindowStrategy,
)
from repro.sorting.rating import RatingSummary, order_by_rating, summarize_ratings


def rating_corpus(mapping):
    return VoteColumns.from_corpus(
        {
            f"t:rate:{item}": [Vote(f"w{i}", score) for i, score in enumerate(scores)]
            for item, scores in mapping.items()
        }
    )


def test_summarize_ratings():
    summaries = summarize_ratings(rating_corpus({"a": [1, 2, 3], "b": [7, 7]}))
    assert summaries["a"].mean == pytest.approx(2.0)
    assert summaries["a"].count == 3
    assert summaries["b"].std == 0.0


def test_summarize_malformed_qid():
    with pytest.raises(QurkError):
        summarize_ratings(VoteColumns.from_corpus({"bogus": [Vote("w", 1)]}))


def test_order_by_rating_ascending_with_deterministic_ties():
    summaries = {
        "x": RatingSummary("x", 3.0, 0.1, 5),
        "y": RatingSummary("y", 1.0, 0.1, 5),
        "z": RatingSummary("z", 3.0, 0.1, 5),
    }
    assert order_by_rating(summaries) == ["y", "x", "z"]


def perfect_compare(window):
    """Oracle comparisons consistent with lexicographic item order."""
    winners = {}
    items = list(window)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i], items[j]
            winners[(a, b)] = max(a, b)
    return winners


def noisy_summaries(n=12, noise_seed=3):
    """Items i00..i11 whose ratings are a noisy version of their index."""
    from repro.util.rng import RandomSource

    rng = RandomSource(noise_seed)
    summaries = {}
    for k in range(n):
        item = f"i{k:02d}"
        summaries[item] = RatingSummary(
            item, mean=k + rng.gauss(0, 1.6), std=1.0, count=5
        )
    return summaries


def test_hybrid_improves_toward_truth():
    summaries = noisy_summaries()
    truth = sorted(summaries)
    sorter = HybridSorter(
        summaries, SlidingWindowStrategy(window_size=5, stride=4), perfect_compare
    )
    from repro.metrics.kendall import kendall_tau_from_orders

    tau_before = kendall_tau_from_orders(sorter.order, truth)
    sorter.run(15)
    tau_after = kendall_tau_from_orders(sorter.order, truth)
    assert tau_after > tau_before
    assert sorter.hits_spent == 15


def test_hybrid_preserves_item_set():
    summaries = noisy_summaries()
    sorter = HybridSorter(
        summaries, RandomStrategy(window_size=4, seed=1), perfect_compare
    )
    before = sorted(sorter.order)
    sorter.run(10)
    assert sorted(sorter.order) == before


def test_random_strategy_positions_valid():
    strategy = RandomStrategy(window_size=5, seed=2)
    order = [f"i{k}" for k in range(9)]
    for iteration in range(10):
        positions = strategy.next_window(order, {}, iteration)
        assert len(positions) == 5
        assert len(set(positions)) == 5
        assert all(0 <= p < 9 for p in positions)


def test_sliding_window_wraps_and_shifts_phase():
    strategy = SlidingWindowStrategy(window_size=3, stride=2)
    order = [f"i{k}" for k in range(5)]
    w0 = strategy.next_window(order, {}, 0)
    w1 = strategy.next_window(order, {}, 1)
    assert w0 == [0, 1, 2]
    assert w1 == [2, 3, 4]
    w2 = strategy.next_window(order, {}, 2)
    assert w2 == [4, 0, 1]  # wraps around


def test_sliding_window_stride_validation():
    with pytest.raises(QurkError):
        SlidingWindowStrategy(window_size=3, stride=0)


def test_confidence_strategy_prioritizes_overlap():
    # Two clearly separated items and two overlapping ones: the window
    # containing the overlapping pair must come first.
    summaries = {
        "a": RatingSummary("a", 1.0, 0.05, 5),
        "b": RatingSummary("b", 3.0, 0.05, 5),
        "c": RatingSummary("c", 5.0, 2.0, 5),
        "d": RatingSummary("d", 5.1, 2.0, 5),
    }
    strategy = ConfidenceStrategy(window_size=2)
    order = order_by_rating(summaries)
    first = strategy.next_window(order, summaries, 0)
    window_items = {order[p] for p in first}
    assert window_items == {"c", "d"}


def test_confidence_strategy_cycles_through_windows():
    summaries = noisy_summaries(n=6)
    strategy = ConfidenceStrategy(window_size=3)
    order = sorted(summaries)
    seen = {tuple(strategy.next_window(order, summaries, i)) for i in range(4)}
    assert len(seen) == 4


def test_hybrid_rejects_empty():
    with pytest.raises(QurkError):
        HybridSorter({}, RandomStrategy(3), perfect_compare)


def test_hybrid_window_migration_across_wrap():
    """An item stuck at the wrong end migrates via wrapped windows."""
    items = [f"i{k:02d}" for k in range(8)]
    summaries = {item: RatingSummary(item, float(k), 0.5, 5) for k, item in enumerate(items)}
    # Place the largest item's rating at the bottom.
    summaries["i07"] = RatingSummary("i07", -1.0, 0.5, 5)
    sorter = HybridSorter(
        summaries, SlidingWindowStrategy(window_size=4, stride=3), perfect_compare
    )
    assert sorter.order[0] == "i07"
    sorter.run(12)
    assert sorter.order.index("i07") >= 5
