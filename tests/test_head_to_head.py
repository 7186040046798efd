"""Tests for head-to-head ordering."""

import pytest

from repro.errors import QurkError
from repro.hits.hit import Vote, compare_pairs, compare_qid
from repro.hits.vote_columns import VoteColumns
from repro.sorting.head_to_head import (
    head_to_head_order,
    pair_winners_from_votes,
    win_fractions,
)


def corpus_for_order(items, votes_per_pair=5, flips=()):
    """Votes consistent with the given order, with optional flipped pairs."""
    corpus = {}
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i], items[j]
            winner = b if (a, b) not in flips else a
            qid = compare_qid("t", a, b)
            corpus[qid] = [Vote(f"w{k}", winner) for k in range(votes_per_pair)]
    return VoteColumns.from_corpus(corpus)


AB = compare_pairs("t", [("a", "b")])


def test_exact_recovery_when_acyclic():
    items = ["a", "b", "c", "d", "e"]
    winners = pair_winners_from_votes(
        corpus_for_order(items), compare_pairs("t", [items])
    )
    assert head_to_head_order(items, winners) == items


def test_majority_voting_per_pair():
    corpus = {
        compare_qid("t", "a", "b"): [
            Vote("w1", "a"), Vote("w2", "b"), Vote("w3", "b")
        ]
    }
    winners = pair_winners_from_votes(VoteColumns.from_corpus(corpus), AB)
    assert winners[("a", "b")] == "b"


def test_tie_breaks_deterministically():
    corpus = {compare_qid("t", "a", "b"): [Vote("w1", "a"), Vote("w2", "b")]}
    assert pair_winners_from_votes(VoteColumns.from_corpus(corpus), AB)[("a", "b")] == "a"


def test_single_flip_moves_one_item():
    items = ["a", "b", "c", "d"]
    winners = pair_winners_from_votes(
        corpus_for_order(items, flips={("c", "d")}), compare_pairs("t", [items])
    )
    order = head_to_head_order(items, winners)
    # c and d swap win counts: both have 2 wins; tie broken by name.
    assert order.index("a") == 0 and order.index("b") == 1


def test_cycle_still_produces_total_order():
    # a>b, b>c, c>a: every item has 1 win; order falls back to item name.
    winners = {("a", "b"): "a", ("b", "c"): "b", ("a", "c"): "c"}
    order = head_to_head_order(["a", "b", "c"], winners)
    assert sorted(order) == ["a", "b", "c"]


def test_winner_must_belong_to_pair():
    with pytest.raises(QurkError):
        head_to_head_order(["a", "b"], {("a", "b"): "z"})


def test_malformed_qid():
    with pytest.raises(QurkError):
        pair_winners_from_votes(
            VoteColumns.from_corpus({"not-a-cmp-qid": [Vote("w", "a")]}), AB
        )


def test_win_fractions():
    items = ["a", "b"]
    corpus = {
        compare_qid("t", "a", "b"): [Vote("w1", "b"), Vote("w2", "b"), Vote("w3", "a")]
    }
    fractions = win_fractions(items, VoteColumns.from_corpus(corpus), AB)
    assert fractions["b"] == pytest.approx(2 / 3)
    assert fractions["a"] == pytest.approx(1 / 3)


def test_empty_votes_ignored():
    winners = pair_winners_from_votes(
        VoteColumns.from_corpus({compare_qid("t", "a", "b"): []}), AB
    )
    assert winners == {}
