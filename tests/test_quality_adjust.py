"""Tests for the QualityAdjust combiner (Ipeirotis et al.)."""

import pytest

from repro.combine.quality_adjust import QualityAdjust
from repro.hits.hit import Vote
from repro.hits.vote_columns import VoteColumns
from repro.util.rng import RandomSource


def spam_corpus(seed: int = 0, n: int = 60):
    """Good workers + an always-no spammer + a random spammer."""
    rng = RandomSource(seed)
    truths = {f"q{i}": i % 3 == 0 for i in range(n)}
    corpus: dict[str, list[Vote]] = {}
    for qid, truth in truths.items():
        votes = [
            Vote(f"good{g}", truth if rng.chance(0.94) else not truth)
            for g in range(4)
        ]
        votes.append(Vote("spam_no", False))
        votes.append(Vote("spam_rand", rng.chance(0.5)))
        corpus[qid] = votes
    return VoteColumns.from_corpus(corpus), truths


def test_combine_recovers_truth():
    corpus, truths = spam_corpus()
    qa = QualityAdjust()
    decisions = qa.combine(corpus)
    accuracy = sum(decisions[q] == t for q, t in truths.items()) / len(truths)
    assert accuracy > 0.92


def test_worker_quality_identifies_spammers():
    corpus, _ = spam_corpus()
    qa = QualityAdjust()
    qa.combine(corpus)
    quality = qa.worker_quality()
    assert quality["good0"] > 0.6
    assert quality["spam_no"] < 0.3
    assert quality["spam_rand"] < 0.3
    spammers = qa.identify_spammers(threshold=0.3)
    assert "spam_no" in spammers and "spam_rand" in spammers
    assert "good0" not in spammers


def test_false_negative_cost_biases_toward_positive():
    """With FN cost 2:1, a borderline posterior resolves to a match."""
    symmetric = QualityAdjust(false_negative_cost=1.0)
    asymmetric = QualityAdjust(false_negative_cost=2.0)
    posterior = {True: 0.4, False: 0.6}
    assert symmetric._boolean_decision(posterior) is False
    assert asymmetric._boolean_decision(posterior) is True


def test_worker_quality_requires_fit():
    qa = QualityAdjust()
    with pytest.raises(RuntimeError):
        qa.worker_quality()


def test_multiclass_map_decision():
    rng = RandomSource(2)
    options = ["a", "b", "c"]
    corpus = {}
    for i in range(30):
        truth = options[i % 3]
        corpus[f"q{i}"] = [
            Vote(f"w{w}", truth if rng.chance(0.9) else rng.choice(options))
            for w in range(5)
        ]
    decisions = QualityAdjust().combine(VoteColumns.from_corpus(corpus))
    accuracy = sum(decisions[f"q{i}"] == options[i % 3] for i in range(30)) / 30
    assert accuracy > 0.9


def test_invalid_iterations():
    with pytest.raises(ValueError):
        QualityAdjust(iterations=0)


def test_qa_beats_majority_with_heavy_spam():
    """§3.4: 'QA significantly improves result quality … because it
    effectively filters spammers.'"""
    from repro.combine.majority import MajorityVote

    rng = RandomSource(5)
    truths = {}
    corpus = {}
    for i in range(80):
        qid = f"q{i}"
        truth = i % 4 == 0
        truths[qid] = truth
        votes = [
            Vote(f"good{g}", truth if rng.chance(0.92) else not truth)
            for g in range(2)
        ]
        votes.extend(Vote(f"spam{s}", False) for s in range(2))
        votes.append(Vote("spam_r", rng.chance(0.5)))
        corpus[qid] = votes
    columns = VoteColumns.from_corpus(corpus)
    mv = MajorityVote().combine(columns)
    qa = QualityAdjust().combine(columns)
    mv_acc = sum(mv[q] == t for q, t in truths.items()) / len(truths)
    qa_acc = sum(qa[q] == t for q, t in truths.items()) / len(truths)
    assert qa_acc > mv_acc
