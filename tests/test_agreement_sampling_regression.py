"""Tests for agreement tables, sampled metrics, and the accuracy regression."""

import pytest

from repro.errors import QurkError
from repro.hits.hit import Vote
from repro.hits.vote_columns import VoteColumns
from repro.metrics.agreement import (
    comparison_agreement_table,
    comparison_kappa,
    feature_kappa,
    vote_count_table,
    worker_accuracies,
)
from repro.metrics.regression import accuracy_regression
from repro.metrics.sampling import estimate_on_samples


def votes(*values):
    return [Vote(f"w{i}", v) for i, v in enumerate(values)]


def test_vote_count_table():
    corpus = {"q1": votes("a", "a", "b"), "q2": votes("b")}
    table = vote_count_table(VoteColumns.from_corpus(corpus))
    assert {"a": 2, "b": 1} in table
    assert {"b": 1} in table


def test_comparison_kappa_unanimous():
    corpus = {
        "t:cmp:a|b": votes("a", "a", "a", "a", "a"),
        "t:cmp:b|c": votes("c", "c", "c", "c", "c"),
    }
    assert comparison_kappa(VoteColumns.from_corpus(corpus)) == pytest.approx(1.0)


def test_comparison_kappa_split():
    corpus = {"t:cmp:a|b": votes("a", "a", "b", "b")}
    # Evenly split: agreement at chance level for k=2.
    assert comparison_kappa(VoteColumns.from_corpus(corpus)) == pytest.approx(
        -0.33333, abs=0.01
    )


def test_feature_kappa_runs_on_generative_corpus():
    corpus = {
        "gender:gen:i1:value": votes("Male", "Male", "Male", "Female", "Male"),
        "gender:gen:i2:value": votes("Female", "Female", "Female", "Female", "Male"),
    }
    assert 0.0 < feature_kappa(VoteColumns.from_corpus(corpus)) <= 1.0


def test_comparison_agreement_table():
    corpus = {"q": votes("a", "a", "b")}
    table = comparison_agreement_table(VoteColumns.from_corpus(corpus))
    assert table["q"] == pytest.approx(2 / 3)


def test_worker_accuracies():
    corpus = {
        "q1": [Vote("w1", True), Vote("w2", False)],
        "q2": [Vote("w1", True), Vote("w2", True)],
    }
    stats = worker_accuracies(VoteColumns.from_corpus(corpus), truth=lambda qid: True)
    assert stats["w1"] == (2, 1.0)
    assert stats["w2"] == (2, 0.5)


def test_worker_accuracies_min_tasks():
    corpus = {"q1": [Vote("w1", True)], "q2": [Vote("w1", True), Vote("w2", True)]}
    stats = worker_accuracies(
        VoteColumns.from_corpus(corpus), truth=lambda qid: True, min_tasks=2
    )
    assert "w2" not in stats and "w1" in stats


def test_estimate_on_samples_tracks_full_metric():
    items = list(range(100))
    result = estimate_on_samples(
        items, metric=lambda subset: sum(subset) / len(subset),
        sample_fraction=0.25, n_samples=50, seed=1,
    )
    assert result.mean == pytest.approx(49.5, abs=5.0)
    assert result.std > 0
    assert len(result.samples) == 50
    assert "(" in str(result)


def test_estimate_on_samples_size_mode():
    result = estimate_on_samples(
        list(range(20)), metric=len, sample_size=10, n_samples=3, seed=0
    )
    assert result.mean == 10


def test_estimate_on_samples_validation():
    with pytest.raises(QurkError):
        estimate_on_samples([1, 2], metric=len, sample_size=1, sample_fraction=0.5)
    with pytest.raises(QurkError):
        estimate_on_samples([1, 2], metric=len)
    with pytest.raises(QurkError):
        estimate_on_samples([1, 2], metric=len, sample_size=5)


def test_estimate_on_samples_skips_failures():
    def flaky(subset):
        if min(subset) < 2:
            raise QurkError("degenerate")
        return 1.0

    result = estimate_on_samples(
        list(range(10)), metric=flaky, sample_size=3, n_samples=50, seed=2
    )
    assert result.mean == 1.0


def test_accuracy_regression_shape():
    """Volume explains little accuracy variance — the §3.3.3 result."""
    pytest.importorskip("scipy")
    from repro.util.rng import RandomSource

    rng = RandomSource(5)
    stats = {}
    for w in range(60):
        tasks = 1 + int(100 * rng.random() ** 3)  # Zipf-ish volumes
        accuracy = min(1.0, max(0.0, 0.85 + rng.gauss(0, 0.08)))
        stats[f"w{w}"] = (tasks, accuracy)
    fit = accuracy_regression(stats)
    assert fit.r_squared < 0.2
    assert fit.n == 60
    assert "R^2" in str(fit)


def test_accuracy_regression_validation():
    with pytest.raises(QurkError):
        accuracy_regression({"w1": (1, 0.5), "w2": (2, 0.6)})
    with pytest.raises(QurkError):
        accuracy_regression({"w1": (3, 0.5), "w2": (3, 0.6), "w3": (3, 0.7)})

