"""Tests for normalizers and the adaptive assignment policy."""

import pytest

from repro.combine.adaptive import AdaptivePolicy, needs_more_votes, vote_margin
from repro.combine.normalize import get_normalizer, register_normalizer
from repro.hits.hit import Vote
from repro.hits.vote_columns import VoteColumns


def tally(*values):
    """One question's tally of these votes, as the adaptive rule reads it."""
    corpus = {"q": [Vote(f"w{i}", v) for i, v in enumerate(values)]}
    return VoteColumns.from_corpus(corpus).tally()["q"]


def test_lowercase_single_space_registered():
    normalizer = get_normalizer("LowercaseSingleSpace")
    assert normalizer("  Polar  BEAR ") == "polar bear"


def test_none_is_identity():
    assert get_normalizer(None)("  X ") == "  X "
    assert get_normalizer("None")(" Y") == " Y"


def test_unknown_normalizer():
    with pytest.raises(KeyError):
        get_normalizer("Nope")


def test_register_custom_and_duplicate():
    register_normalizer("TestUpper", str.upper)
    assert get_normalizer("TestUpper")("ab") == "AB"
    with pytest.raises(KeyError):
        register_normalizer("TestUpper", str.upper)
    register_normalizer("TestUpper", str.title, replace=True)
    assert get_normalizer("TestUpper")("ab cd") == "Ab Cd"


def test_vote_margin():
    assert vote_margin(tally()) == 0
    assert vote_margin(tally(True)) == 1
    assert vote_margin(tally(True, True, False)) == 1
    assert vote_margin(tally(True, True, True, False)) == 2


def test_policy_validation():
    with pytest.raises(ValueError):
        AdaptivePolicy(initial_votes=0)
    with pytest.raises(ValueError):
        AdaptivePolicy(max_votes=2, initial_votes=3)
    with pytest.raises(ValueError):
        AdaptivePolicy(margin=0)


def test_needs_more_votes_margin_reached():
    policy = AdaptivePolicy(initial_votes=3, max_votes=9, margin=2)
    assert not needs_more_votes(tally(True, True, True), policy)  # margin 3


def test_needs_more_votes_contested():
    policy = AdaptivePolicy(initial_votes=3, max_votes=9, margin=2)
    assert needs_more_votes(tally(True, True, False), policy)  # margin 1


def test_needs_more_votes_budget_exhausted():
    policy = AdaptivePolicy(initial_votes=3, max_votes=5, margin=2)
    assert not needs_more_votes(tally(True, False, True, False, True), policy)


def test_needs_more_votes_unreachable_margin_stops_early():
    # Margin 3 needed, current margin 0, only 1 vote left: unreachable.
    tight = AdaptivePolicy(initial_votes=3, max_votes=5, margin=3)
    assert not needs_more_votes(tally(True, False, True, False), tight)
