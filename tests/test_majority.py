"""Tests for the MajorityVote combiner."""

import pytest

from repro.combine.base import combine_corpus
from repro.combine.majority import MajorityVote, vote_fractions
from repro.errors import CombinerError
from repro.hits.hit import Vote
from repro.hits.vote_columns import VoteColumns


def votes(*values):
    return [Vote(worker_id=f"w{i}", value=v) for i, v in enumerate(values)]


def test_simple_majority():
    combiner = MajorityVote()
    assert combiner.combine_one(votes(True, True, False)) is True
    assert combiner.combine_one(votes("a", "b", "b")) == "b"


def test_binary_tie_is_negative():
    # "identify a join pair if the number of positive votes outweighs the
    # negative votes" — a tie does not outweigh.
    combiner = MajorityVote()
    assert combiner.combine_one(votes(True, False)) is False


def test_non_binary_tie_deterministic():
    combiner = MajorityVote()
    assert combiner.combine_one(votes("x", "y")) == combiner.combine_one(votes("y", "x"))


def test_corpus_combination():
    combiner = MajorityVote()
    result = combiner.combine(
        VoteColumns.from_corpus({"q1": votes(True, True, False), "q2": votes(False)})
    )
    assert result == {"q1": True, "q2": False}


def test_empty_votes_raise():
    with pytest.raises(CombinerError):
        MajorityVote().combine_one([])


def test_combine_corpus_validates():
    with pytest.raises(CombinerError):
        combine_corpus(MajorityVote(), VoteColumns.from_corpus({"q": []}))


def test_vote_fractions():
    tally = VoteColumns.from_corpus({"q": votes("a", "a", "b", "c"), "e": []}).tally()
    fractions = vote_fractions(tally["q"])
    assert fractions["a"] == 0.5
    assert fractions["b"] == 0.25
    assert vote_fractions(tally["e"]) == {}
