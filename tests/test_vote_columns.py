"""Vote columns against the list-of-``Vote`` formulation they replaced.

Every column reader must give exactly what the per-question code gave on
``{qid: [Vote, ...]}`` lists: the same decisions in the same order and of
the same type, the same counts, and bit-identical floats (rating means,
pair agreement, Dawid–Skene posteriors). The retired per-question code
lives on below as the oracle. Examples are derandomized, so a run is
reproducible.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.combine.adaptive import AdaptivePolicy, needs_more_votes, vote_margin
from repro.combine.dawid_skene import dawid_skene
from repro.combine.majority import MajorityVote
from repro.combine.normalize import get_normalizer
from repro.errors import CombinerError, QurkError
from repro.hits.hit import Assignment, Vote, compare_pairs, compare_qid
from repro.hits.manager import BatchOutcome
from repro.hits.vote_columns import VoteColumns, normalized_values
from repro.joins.feature_filter import confident_value
from repro.metrics.agreement import (
    comparison_kappa,
    feature_kappa,
    mean_pair_agreement,
    vote_count_table,
)
from repro.metrics.fleiss import fleiss_kappa, modified_kappa
from repro.relational.expressions import UNKNOWN
from repro.sorting.graph import ComparisonGraph
from repro.sorting.head_to_head import pair_winners_from_votes
from repro.sorting.rating import summarize_ratings
from repro.util.stats import mean, stddev

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# ---------------------------------------------------------------------------
# The per-question formulations the columns replaced (oracles)
# ---------------------------------------------------------------------------


def oracle_votes(assignments) -> dict[str, list[Vote]]:
    """The manager's old vote buckets: one ``Vote`` per answer."""
    votes: dict[str, list[Vote]] = {}
    for assignment in assignments:
        for qid, value in assignment.answers.items():
            votes.setdefault(qid, []).append(Vote(assignment.worker_id, value))
    return votes


def count_vote_values(votes) -> dict[object, int]:
    counts: dict[object, int] = {}
    for vote in votes:
        counts[vote.value] = counts.get(vote.value, 0) + 1
    return counts


def oracle_majority(votes) -> object:
    values = [vote.value for vote in votes]
    first = values[0]
    if values.count(first) == len(values):
        return first
    counts = count_vote_values(votes)
    best_count = max(counts.values())
    winners = [value for value, count in counts.items() if count == best_count]
    if len(winners) == 1:
        return winners[0]
    if set(counts) <= {True, False}:
        return False
    return sorted(winners, key=repr)[0]


def oracle_pair_agreement(corpus) -> float:
    agreements = []
    for votes in corpus.values():
        yes = sum(bool(vote.value) for vote in votes)
        agreements.append(max(yes, len(votes) - yes) / len(votes))
    return sum(agreements) / len(agreements)


def oracle_margin(votes) -> int:
    if not votes:
        return 0
    counts = Counter(vote.value for vote in votes).most_common()
    if len(counts) == 1:
        return counts[0][1]
    return counts[0][1] - counts[1][1]


def oracle_needs_more(votes, policy) -> bool:
    if len(votes) >= policy.max_votes:
        return False
    remaining = policy.max_votes - len(votes)
    current = oracle_margin(votes)
    if current >= policy.margin:
        return False
    return current + remaining >= policy.margin


def oracle_confident(votes, share) -> object:
    if not votes:
        return UNKNOWN
    counts = Counter(vote.value for vote in votes)
    winner, count = max(counts.items(), key=lambda kv: (kv[1], repr(kv[0])))
    if count / len(votes) < share:
        return UNKNOWN
    return winner


def oracle_pair_winners(corpus) -> dict[tuple[str, str], str]:
    winners = {}
    for qid, votes in corpus.items():
        if not votes:
            continue
        a, b = qid.rsplit(":cmp:", 1)[1].split("|", 1)
        counts = count_vote_values(votes)
        top = max(counts.values())
        leaders = sorted([v for v, c in counts.items() if c == top], key=str)
        winners[(a, b)] = str(leaders[0])
    return winners


def oracle_graph_edges(items, corpus) -> dict[tuple[str, str], float]:
    graph = ComparisonGraph(items)
    for qid, votes in corpus.items():
        a, b = qid.rsplit(":cmp:", 1)[1].split("|", 1)
        counts = Counter(str(vote.value) for vote in votes)
        wins_a, wins_b = counts.get(a, 0), counts.get(b, 0)
        if wins_a > wins_b:
            graph.add_edge(a, b, wins_a - wins_b)
        elif wins_b > wins_a:
            graph.add_edge(b, a, wins_b - wins_a)
    return graph.edges


def oracle_ratings(corpus) -> dict[str, tuple[float, float, int]]:
    summaries = {}
    for qid, votes in corpus.items():
        values = [float(vote.value) for vote in votes]
        summaries[qid.rsplit(":rate:", 1)[1]] = (mean(values), stddev(values), len(values))
    return summaries


def oracle_dawid_skene(corpus, iterations=5, smoothing=0.01):
    """Dawid–Skene EM over ``{qid: [Vote]}``; returns (posteriors, confusion)."""
    labels = sorted({vote.value for votes in corpus.values() for vote in votes}, key=repr)
    workers = sorted({vote.worker_id for votes in corpus.values() for vote in votes})
    question_ids = list(corpus.keys())
    posteriors = {}
    for qid in question_ids:
        counts = Counter(vote.value for vote in corpus[qid])
        total = sum(counts.values())
        posteriors[qid] = {label: counts.get(label, 0) / total for label in labels}
    confusion = {}
    for _ in range(iterations):
        priors = {
            label: sum(posteriors[qid][label] for qid in question_ids) / len(question_ids)
            for label in labels
        }
        confusion = {
            worker: {t: {a: smoothing for a in labels} for t in labels} for worker in workers
        }
        for qid in question_ids:
            posterior = posteriors[qid]
            for vote in corpus[qid]:
                rows = confusion[vote.worker_id]
                for true_label in labels:
                    rows[true_label][vote.value] += posterior[true_label]
        for worker in workers:
            for true_label in labels:
                row = confusion[worker][true_label]
                total = sum(row.values())
                for answer in labels:
                    row[answer] /= total
        for qid in question_ids:
            scores = {}
            for true_label in labels:
                likelihood = priors[true_label]
                for vote in corpus[qid]:
                    likelihood *= confusion[vote.worker_id][true_label][vote.value]
                scores[true_label] = likelihood
            total = sum(scores.values())
            if total <= 0.0:
                posteriors[qid] = dict(priors)
            else:
                posteriors[qid] = {label: score / total for label, score in scores.items()}
    return posteriors, confusion


def typed(mapping) -> list:
    """Items with each value's type, so ``1`` never passes for ``True``."""
    return [(key, type(value), value) for key, value in mapping.items()]


def outcome_of(call):
    """A call's result, or its exception type (for degenerate corpora)."""
    try:
        return call()
    except (ZeroDivisionError, ValueError, QurkError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# Strategies: harvested assignments with mixed answer values
# ---------------------------------------------------------------------------

WORKERS = [f"w{i}" for i in range(4)]
FILTER_QIDS = [f"t:filter:img://item/{i}" for i in range(6)]
VALUE_POOLS = (
    (True, False),
    (True, False, 1, 0),
    (True, False, 1, 0, "a", "b", UNKNOWN),
    ("a", "b", "c", UNKNOWN),
)


def assignments_over(qids, values):
    answers = st.dictionaries(
        st.sampled_from(qids), st.sampled_from(values), min_size=1, max_size=len(qids)
    )
    one = st.tuples(st.sampled_from(WORKERS), answers)
    return st.lists(one, min_size=1, max_size=12).map(
        lambda drawn: [
            Assignment(f"a{i}", "h", worker, dict(answers))
            for i, (worker, answers) in enumerate(drawn)
        ]
    )


harvests = st.sampled_from(VALUE_POOLS).flatmap(
    lambda values: assignments_over(FILTER_QIDS, values)
)

# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(harvests)
@PROPERTY
def test_view_matches_vote_lists_in_order(assignments):
    columns = VoteColumns.from_assignments(assignments)
    oracle = oracle_votes(assignments)
    view = BatchOutcome(assignments=assignments, columns=columns).votes
    assert list(view) == list(oracle)
    assert {qid: len(votes) for qid, votes in view.items()} == {
        qid: len(votes) for qid, votes in oracle.items()
    }
    assert {qid: list(votes) for qid, votes in view.items()} == oracle


@given(harvests)
@PROPERTY
def test_majority_decisions_match_in_order_and_type(assignments):
    columns = VoteColumns.from_assignments(assignments)
    oracle = oracle_votes(assignments)
    decisions = MajorityVote().combine(columns)
    assert typed(decisions) == typed(
        {qid: oracle_majority(votes) for qid, votes in oracle.items()}
    )


@given(harvests)
@PROPERTY
def test_pair_agreement_is_bit_identical(assignments):
    columns = VoteColumns.from_assignments(assignments)
    assert mean_pair_agreement(columns) == oracle_pair_agreement(oracle_votes(assignments))


@given(harvests)
@PROPERTY
def test_adaptive_rule_reads_the_tally(assignments):
    tally = VoteColumns.from_assignments(assignments).tally()
    policies = [
        AdaptivePolicy(initial_votes=1, step_votes=1, max_votes=max_votes, margin=margin)
        for max_votes in (3, 5, 9)
        for margin in (1, 2, 3)
    ]
    for qid, votes in oracle_votes(assignments).items():
        assert vote_margin(tally[qid]) == oracle_margin(votes)
        for policy in policies:
            assert needs_more_votes(tally[qid], policy) == oracle_needs_more(votes, policy)
    assert vote_margin({}) == oracle_margin([])


@given(harvests)
@PROPERTY
def test_confident_value_matches(assignments):
    tally = VoteColumns.from_assignments(assignments).tally()
    for qid, votes in oracle_votes(assignments).items():
        for share in (0.4, 0.6, 1.0):
            got = confident_value(tally[qid], share)
            want = oracle_confident(votes, share)
            assert (type(got), got) == (type(want), want)


@given(harvests)
@PROPERTY
def test_kappa_count_tables_match(assignments):
    columns = VoteColumns.from_assignments(assignments)
    oracle = oracle_votes(assignments)
    table = [list(counts.items()) for counts in vote_count_table(columns)]
    assert table == [list(count_vote_values(votes).items()) for votes in oracle.values()]
    rows = [count_vote_values(votes) for votes in oracle.values()]
    assert outcome_of(lambda: feature_kappa(columns)) == outcome_of(lambda: fleiss_kappa(rows))
    assert outcome_of(lambda: comparison_kappa(columns)) == outcome_of(
        lambda: modified_kappa(rows, categories=2)
    )


ITEMS = ["x0", "x1", "x2", "x3"]
CMP_QIDS = [compare_qid("t", a, b) for i, a in enumerate(ITEMS) for b in ITEMS[i + 1 :]]


@given(st.sampled_from([tuple(ITEMS), (*ITEMS, 7, "y")]).flatmap(
    lambda values: assignments_over(CMP_QIDS, values)
))
@PROPERTY
def test_pair_winners_and_graph_edges_match(assignments):
    columns = VoteColumns.from_assignments(assignments)
    oracle = oracle_votes(assignments)
    pairs = compare_pairs("t", [ITEMS])
    assert list(pair_winners_from_votes(columns, pairs).items()) == list(
        oracle_pair_winners(oracle).items()
    )
    graph = ComparisonGraph.from_votes(ITEMS, columns, pairs)
    assert list(graph.edges.items()) == list(oracle_graph_edges(ITEMS, oracle).items())


RATE_QIDS = [f"t:rate:img://scene/{i}" for i in range(5)]
ratings = st.one_of(
    st.integers(min_value=1, max_value=7),
    st.floats(min_value=1.0, max_value=7.0, allow_nan=False),
)


@given(st.lists(
    st.tuples(
        st.sampled_from(WORKERS),
        st.dictionaries(st.sampled_from(RATE_QIDS), ratings, min_size=1),
    ),
    min_size=1,
    max_size=12,
))
@PROPERTY
def test_rating_means_and_deviations_are_bit_identical(drawn):
    assignments = [Assignment(f"a{i}", "h", w, a) for i, (w, a) in enumerate(drawn)]
    summaries = summarize_ratings(VoteColumns.from_assignments(assignments))
    got = {item: (s.mean, s.std, s.count) for item, s in summaries.items()}
    assert list(got.items()) == list(oracle_ratings(oracle_votes(assignments)).items())


@given(harvests)
@PROPERTY
def test_dawid_skene_posteriors_and_confusion_are_exact(assignments):
    columns = VoteColumns.from_assignments(assignments)
    posteriors, confusion = oracle_dawid_skene(oracle_votes(assignments))
    result = dawid_skene(columns)
    assert list(result.posteriors.items()) == list(posteriors.items())
    assert result.worker_confusion == confusion
    assert list(result.worker_confusion) == list(confusion)


@given(harvests, harvests)
@PROPERTY
def test_outcome_merge_matches_merged_vote_dicts(first, second):
    merged = BatchOutcome(columns=VoteColumns.from_assignments(first))
    merged.merge(BatchOutcome(columns=VoteColumns.from_assignments(second)))
    oracle = oracle_votes(first)
    for qid, votes in oracle_votes(second).items():
        oracle.setdefault(qid, []).extend(votes)
    assert list(merged.votes) == list(oracle)
    assert {qid: list(votes) for qid, votes in merged.votes.items()} == oracle
    assert typed(MajorityVote().combine(merged.columns)) == typed(
        {qid: oracle_majority(votes) for qid, votes in oracle.items()}
    )


@given(st.lists(st.sampled_from([True, 1, "True", "1", 1.0, " A  b", "a b", 0, False])))
@PROPERTY
def test_normalizing_once_per_distinct_text_equals_per_vote(values):
    for normalizer in (get_normalizer("LowercaseSingleSpace"), repr, len):
        assert normalized_values(values, normalizer) == [
            normalizer(str(value)) for value in values
        ]


def test_normalizer_memo_keys_on_text_not_value():
    # True == 1, but "True" and "1" normalize differently.
    assert normalized_values([True, 1], repr) == ["'True'", "'1'"]


# ---------------------------------------------------------------------------
# Table edge cases
# ---------------------------------------------------------------------------


def test_pair_readers_decode_refs_containing_the_separator():
    items = ["img://sq|0", "img://sq|1"]
    pairs = compare_pairs("t", [items])
    corpus = VoteColumns.from_corpus(
        {compare_qid("t", *items): [Vote("w0", "img://sq|1"), Vote("w1", "img://sq|1")]}
    )
    assert pair_winners_from_votes(corpus, pairs) == {tuple(items): "img://sq|1"}
    graph = ComparisonGraph.from_votes(items, corpus, pairs)
    assert graph.edges == {("img://sq|1", "img://sq|0"): 2}
    with pytest.raises(QurkError):
        pair_winners_from_votes(corpus, {})


def test_select_keeps_requested_order_and_empty_questions():
    corpus = VoteColumns.from_corpus(
        {"q1": [Vote("w0", True)], "q2": [Vote("w1", False), Vote("w2", True)]}
    )
    picked = corpus.select(["q2", "q9", "q1"])
    assert picked.sizes() == {"q2": 2, "q9": 0, "q1": 1}
    assert picked.tally() == {"q2": {False: 1, True: 1}, "q9": {}, "q1": {True: 1}}
    assert corpus.select(["q1", "q2"]) is corpus
    with pytest.raises(CombinerError):
        MajorityVote().combine(picked)


def test_tally_merges_equal_values_under_the_first_seen():
    corpus = VoteColumns.from_corpus({"q": [Vote("w0", 1), Vote("w1", True)]})
    assert list(corpus.tally()["q"].items()) == [(1, 2)]
    assert not corpus.all_bool()
    decision = MajorityVote().combine(corpus)["q"]
    assert type(decision) is int and decision == 1  # the first vote's value
    assert math.isclose(mean_pair_agreement(corpus), 1.0)
