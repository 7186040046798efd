"""Tests for feature filtering and automatic feature selection."""

import pytest

from repro.errors import QurkError
from repro.hits.hit import Vote
from repro.hits.vote_columns import VoteColumns
from repro.joins.feature_filter import (
    error_contribution,
    evaluate_features,
    filter_candidates,
    leave_one_out,
    pair_passes,
)
from repro.relational.expressions import UNKNOWN

LEFT = ["l0", "l1", "l2"]
RIGHT = ["r0", "r1", "r2"]

GENDER = (
    {"l0": "m", "l1": "f", "l2": "m"},
    {"r0": "m", "r1": "f", "r2": "f"},
)
HAIR = (
    {"l0": "brown", "l1": "blond", "l2": UNKNOWN},
    {"r0": "brown", "r1": "white", "r2": "black"},
)


def test_pair_passes_agreement():
    assert pair_passes("l0", "r0", [GENDER])
    assert not pair_passes("l0", "r1", [GENDER])


def test_pair_passes_unknown_wildcard():
    assert pair_passes("l2", "r2", [HAIR])  # left is UNKNOWN
    assert pair_passes("l2", "r0", [GENDER, HAIR])


def test_pair_passes_missing_item_treated_unknown():
    assert pair_passes("l9", "r0", [GENDER])


def test_filter_candidates_all_features():
    candidates = filter_candidates(LEFT, RIGHT, [GENDER, HAIR])
    assert ("l0", "r0") in candidates  # agrees on both
    assert ("l1", "r1") not in candidates  # blond vs white hair
    assert ("l2", "r0") in candidates  # UNKNOWN hair never prunes


def test_filter_candidates_no_features_is_cross_product():
    assert len(filter_candidates(LEFT, RIGHT, [])) == 9


def test_leave_one_out():
    features = {"gender": GENDER, "hair": HAIR}
    without_hair = leave_one_out(LEFT, RIGHT, features, omit="hair")
    with_all = filter_candidates(LEFT, RIGHT, [GENDER, HAIR])
    assert set(with_all) <= set(without_hair)
    assert ("l1", "r1") in without_hair  # hair was what pruned it
    with pytest.raises(QurkError):
        leave_one_out(LEFT, RIGHT, features, omit="nope")


def test_error_contribution():
    features = {"gender": GENDER, "hair": HAIR}
    # Reference result (true matches): diagonal pairs.
    matches = [("l0", "r0"), ("l1", "r1")]
    fraction = error_contribution(LEFT, RIGHT, features, "hair", matches)
    assert fraction == pytest.approx(0.5)  # hair prunes (l1, r1)
    assert error_contribution(LEFT, RIGHT, features, "gender", []) == 0.0


def agree_votes(value, n=5):
    return [Vote(f"w{i}", value) for i in range(n)]


def split_votes():
    return [Vote("w0", "a"), Vote("w1", "b"), Vote("w2", "a"), Vote("w3", "b"), Vote("w4", "c")]


def test_evaluate_features_keeps_good_drops_ambiguous():
    features = {"gender": GENDER, "hair": HAIR}
    corpora = {
        "gender": VoteColumns.from_corpus(
            {f"gender:gen:{item}:value": agree_votes("m") for item in LEFT + RIGHT}
        ),
        "hair": VoteColumns.from_corpus(
            {f"hair:gen:{item}:value": split_votes() for item in LEFT + RIGHT}
        ),
    }
    report = evaluate_features(LEFT, RIGHT, features, corpora)
    assert "gender" in report.kept
    assert "hair" in report.dropped
    hair_decision = next(d for d in report.decisions if d.name == "hair")
    assert "ambiguous" in hair_decision.reason
    assert "drop" in str(hair_decision)


def test_evaluate_features_drops_ineffective():
    same = ({"l0": "x", "l1": "x"}, {"r0": "x", "r1": "x"})
    corpora = {
        "const": VoteColumns.from_corpus({f"q{i}": agree_votes("x") for i in range(4)})
    }
    report = evaluate_features(
        ["l0", "l1"], ["r0", "r1"], {"const": same}, corpora
    )
    assert report.dropped == ["const"]
    assert "ineffective" in report.decisions[0].reason


def test_evaluate_features_drops_unsound():
    # A selective, agreed-upon feature that nevertheless prunes true matches.
    unstable = ({"l0": "a", "l1": "b"}, {"r0": "b", "r1": "a"})
    corpora = {
        "f": VoteColumns.from_corpus({f"q{i}": agree_votes("a") for i in range(4)})
    }
    report = evaluate_features(
        ["l0", "l1"],
        ["r0", "r1"],
        {"f": unstable},
        corpora,
        sampled_matches=[("l0", "r0"), ("l1", "r1")],
    )
    assert report.dropped == ["f"]
    assert "unsound" in report.decisions[0].reason


def test_evaluate_features_missing_corpus_assumes_agreement():
    features = {"gender": GENDER}
    report = evaluate_features(LEFT, RIGHT, features, {})
    assert report.kept == ["gender"]
