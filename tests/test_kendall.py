"""Tests for Kendall's τ-b, cross-validated against scipy."""

import pytest

from repro.errors import QurkError
from repro.metrics.kendall import kendall_tau_b, kendall_tau_from_orders


def test_perfect_correlation():
    assert kendall_tau_b([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_inverse_correlation():
    assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_matches_scipy_without_ties():
    stats = pytest.importorskip("scipy.stats")
    x = [5.0, 1.0, 3.0, 2.0, 4.0, 7.0, 6.0]
    y = [6.0, 2.0, 1.0, 3.0, 5.0, 7.0, 4.0]
    expected = stats.kendalltau(x, y, variant="b").statistic
    assert kendall_tau_b(x, y) == pytest.approx(expected)


def test_matches_scipy_with_ties():
    stats = pytest.importorskip("scipy.stats")
    x = [1.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    y = [1.0, 3.0, 2.0, 2.0, 3.0, 1.0]
    expected = stats.kendalltau(x, y, variant="b").statistic
    assert kendall_tau_b(x, y) == pytest.approx(expected)


def test_length_mismatch():
    with pytest.raises(QurkError):
        kendall_tau_b([1, 2], [1])


def test_too_short():
    with pytest.raises(QurkError):
        kendall_tau_b([1], [1])


def test_degenerate_all_tied():
    with pytest.raises(QurkError):
        kendall_tau_b([1, 1, 1], [1, 2, 3])


def test_orders_identical():
    order = ["a", "b", "c", "d"]
    assert kendall_tau_from_orders(order, list(order)) == pytest.approx(1.0)


def test_orders_reversed():
    order = ["a", "b", "c", "d"]
    assert kendall_tau_from_orders(order, order[::-1]) == pytest.approx(-1.0)


def test_orders_one_swap():
    a = ["a", "b", "c", "d"]
    b = ["b", "a", "c", "d"]
    tau = kendall_tau_from_orders(a, b)
    assert 0.6 < tau < 1.0


def test_orders_different_items_rejected():
    with pytest.raises(QurkError):
        kendall_tau_from_orders(["a", "b"], ["a", "c"])


def test_orders_with_tied_scores():
    # Equal mean ratings keep items tied; τ-b must handle it.
    stats = pytest.importorskip("scipy.stats")
    order = ["a", "b", "c"]
    scores_b = {"a": 1.0, "b": 1.0, "c": 2.0}
    tau = kendall_tau_from_orders(
        order, order, scores_b={**scores_b}, scores_a=None
    )
    expected = stats.kendalltau([0, 1, 2], [1.0, 1.0, 2.0], variant="b").statistic
    assert tau == pytest.approx(expected)
