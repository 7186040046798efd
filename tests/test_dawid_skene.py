"""Tests for the Dawid-Skene EM estimator."""

import pytest

from repro.combine.dawid_skene import dawid_skene
from repro.errors import CombinerError
from repro.hits.hit import Vote
from repro.hits.vote_columns import VoteColumns
from repro.util.rng import RandomSource


def synthetic_corpus(
    n_questions: int = 60,
    good_workers: int = 6,
    bad_workers: int = 2,
    good_accuracy: float = 0.95,
    seed: int = 0,
):
    """Binary questions with known truth, good workers and coin-flippers."""
    rng = RandomSource(seed)
    truths = {f"q{i}": i % 2 == 0 for i in range(n_questions)}
    corpus: dict[str, list[Vote]] = {qid: [] for qid in truths}
    for qid, truth in truths.items():
        for g in range(good_workers):
            value = truth if rng.chance(good_accuracy) else not truth
            corpus[qid].append(Vote(f"good{g}", value))
        for b in range(bad_workers):
            corpus[qid].append(Vote(f"bad{b}", rng.chance(0.5)))
    return corpus, truths


def test_recovers_truth_on_clean_corpus():
    corpus, truths = synthetic_corpus()
    result = dawid_skene(VoteColumns.from_corpus(corpus), iterations=5)
    labels = result.hard_labels()
    accuracy = sum(labels[qid] == truth for qid, truth in truths.items()) / len(truths)
    assert accuracy >= 0.95


def test_worker_accuracy_estimates_separate_good_from_bad():
    corpus, _ = synthetic_corpus()
    result = dawid_skene(VoteColumns.from_corpus(corpus), iterations=5)
    good = result.worker_accuracy_estimate("good0")
    bad = result.worker_accuracy_estimate("bad0")
    assert good > 0.85
    assert bad < 0.75


def test_posteriors_are_distributions():
    corpus, _ = synthetic_corpus(n_questions=20)
    result = dawid_skene(VoteColumns.from_corpus(corpus))
    for posterior in result.posteriors.values():
        assert sum(posterior.values()) == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 for p in posterior.values())


def test_priors_sum_to_one():
    corpus, _ = synthetic_corpus(n_questions=20)
    result = dawid_skene(VoteColumns.from_corpus(corpus))
    assert sum(result.priors.values()) == pytest.approx(1.0)


def test_handles_bias_better_than_majority():
    """Workers with a systematic 'no' bias: EM corrects, majority cannot."""
    rng = RandomSource(3)
    corpus: dict[str, list[Vote]] = {}
    truths = {}
    for i in range(80):
        qid = f"q{i}"
        truth = i % 4 == 0  # 25% positives
        truths[qid] = truth
        votes = []
        # Two accurate workers.
        for g in range(2):
            votes.append(Vote(f"good{g}", truth if rng.chance(0.97) else not truth))
        # Three workers who say no to everything.
        for b in range(3):
            votes.append(Vote(f"naysayer{b}", False))
        corpus[qid] = votes
    result = dawid_skene(VoteColumns.from_corpus(corpus), iterations=10)
    labels = result.hard_labels()
    em_accuracy = sum(labels[q] == t for q, t in truths.items()) / len(truths)
    majority_accuracy = sum((False) == t for t in truths.values()) / len(truths)
    assert em_accuracy > majority_accuracy


def test_multiclass_labels():
    rng = RandomSource(4)
    options = ["red", "green", "blue"]
    corpus = {}
    truths = {}
    for i in range(45):
        truth = options[i % 3]
        truths[f"q{i}"] = truth
        votes = []
        for w in range(5):
            value = truth if rng.chance(0.85) else rng.choice(options)
            votes.append(Vote(f"w{w}", value))
        corpus[f"q{i}"] = votes
    result = dawid_skene(VoteColumns.from_corpus(corpus))
    labels = result.hard_labels()
    accuracy = sum(labels[q] == t for q, t in truths.items()) / len(truths)
    assert accuracy > 0.9
    assert sorted(result.labels) == sorted(options)


def test_empty_corpus_rejected():
    with pytest.raises(CombinerError):
        dawid_skene(VoteColumns.from_corpus({}))


def test_question_with_no_votes_rejected():
    with pytest.raises(CombinerError):
        dawid_skene(VoteColumns.from_corpus({"q": []}))


def test_iterations_validated():
    corpus, _ = synthetic_corpus(n_questions=5)
    with pytest.raises(CombinerError):
        dawid_skene(VoteColumns.from_corpus(corpus), iterations=0)


def test_single_worker_corpus_does_not_crash():
    corpus = {f"q{i}": [Vote("solo", i % 2 == 0)] for i in range(10)}
    result = dawid_skene(VoteColumns.from_corpus(corpus))
    assert len(result.hard_labels()) == 10
