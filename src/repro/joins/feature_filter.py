"""Feature filtering: prune join candidates with extracted features (§3.2).

Given combined feature values for each item of both tables, a candidate
pair survives only if it agrees on every *applied* feature — with UNKNOWN
matching everything. The module also implements the paper's three automatic
reasons to *reject* a proposed feature:

1. **Ineffective** — sampled selectivity too close to 1 (the crowd pass
   costs more than the comparisons it saves);
2. **Unsound** — the feature disagrees across true matches (leave-one-out:
   removing it changes the sampled join result too much), e.g. dyed hair;
3. **Ambiguous** — workers cannot agree on the value (Fleiss' κ below a
   threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import QurkError
from repro.hits.vote_columns import VoteColumns
from repro.joins.selectivity import estimate_selectivity
from repro.metrics.agreement import feature_kappa
from repro.relational.expressions import UNKNOWN, feature_equal

FeatureValues = Mapping[str, object]
"""item reference → combined feature value (may be UNKNOWN)."""

ABSTENTION_SHARE = 0.6
"""Minimum vote share a label needs to become a *filtering* value.

Feature filters are preconditions — a wrong confident value prunes a true
match forever. Combined values whose winning label holds less than this
share of the votes are therefore demoted to UNKNOWN (which never prunes):
contested features like hair color filter weakly instead of wrongly.
"""


def confident_value(
    counts: Mapping[object, int], share: float = ABSTENTION_SHARE
) -> object:
    """Majority label of one question's tally, or UNKNOWN when the winner
    lacks a confident share (or the question has no votes)."""
    if not counts:
        return UNKNOWN
    winner, count = max(counts.items(), key=lambda kv: (kv[1], repr(kv[0])))
    if count / sum(counts.values()) < share:
        return UNKNOWN
    return winner


def confident_feature_values(
    corpus: VoteColumns, share: float = ABSTENTION_SHARE
) -> dict[str, object]:
    """item ref → abstention-aware combined value from a ``task:gen:item:field``
    vote corpus."""
    values: dict[str, object] = {}
    for qid, counts in corpus.tally().items():
        item = qid.rsplit(":", 1)[0].rsplit(":gen:", 1)[1]
        values[item] = confident_value(counts, share)
    return values


def pair_passes(
    left_item: str,
    right_item: str,
    features: Sequence[tuple[FeatureValues, FeatureValues]],
) -> bool:
    """Whether a pair agrees on every feature (UNKNOWN never prunes).

    ``features`` holds (left table values, right table values) per feature.
    Items missing from a feature's map are treated as UNKNOWN.
    """
    for left_values, right_values in features:
        left = left_values.get(left_item, UNKNOWN)
        right = right_values.get(right_item, UNKNOWN)
        if not feature_equal(left, right):
            return False
    return True


def filter_candidates(
    left_items: Sequence[str],
    right_items: Sequence[str],
    features: Sequence[tuple[FeatureValues, FeatureValues]],
) -> list[tuple[str, str]]:
    """Candidate pairs surviving every feature filter."""
    return [
        (left, right)
        for left in left_items
        for right in right_items
        if pair_passes(left, right, features)
    ]


@dataclass(frozen=True)
class FeatureDecision:
    """Verdict on one proposed POSSIBLY feature."""

    name: str
    keep: bool
    reason: str
    selectivity: float
    kappa: float
    error_contribution: float

    def __str__(self) -> str:
        verdict = "keep" if self.keep else "drop"
        return (
            f"{self.name}: {verdict} ({self.reason}; sel={self.selectivity:.2f}, "
            f"kappa={self.kappa:.2f}, err={self.error_contribution:.2f})"
        )


@dataclass
class FeatureFilterReport:
    """All decisions plus the features that survived."""

    decisions: list[FeatureDecision] = field(default_factory=list)

    @property
    def kept(self) -> list[str]:
        """Names of the features to apply."""
        return [decision.name for decision in self.decisions if decision.keep]

    @property
    def dropped(self) -> list[str]:
        """Names of the rejected features."""
        return [decision.name for decision in self.decisions if not decision.keep]


def leave_one_out(
    left_items: Sequence[str],
    right_items: Sequence[str],
    features: Mapping[str, tuple[FeatureValues, FeatureValues]],
    omit: str,
) -> list[tuple[str, str]]:
    """Candidates surviving all features except ``omit`` (Table 3)."""
    if omit not in features:
        raise QurkError(f"unknown feature {omit!r}")
    kept = [values for name, values in features.items() if name != omit]
    return filter_candidates(left_items, right_items, kept)


def error_contribution(
    left_items: Sequence[str],
    right_items: Sequence[str],
    features: Mapping[str, tuple[FeatureValues, FeatureValues]],
    feature_name: str,
    reference_pairs: Sequence[tuple[str, str]],
) -> float:
    """The paper's |j_f− − j_f+| / |j_f−| test on a (sampled) join result.

    ``reference_pairs`` is the sampled join output with all features except
    ``feature_name`` (j_f−). The returned fraction is how much of that
    result the feature would additionally prune — high values mean the
    feature disagrees across true matches and is unsafe.
    """
    if not reference_pairs:
        return 0.0
    feature = features[feature_name]
    pruned = [
        pair
        for pair in reference_pairs
        if not pair_passes(pair[0], pair[1], [feature])
    ]
    return len(pruned) / len(reference_pairs)


def evaluate_features(
    left_items: Sequence[str],
    right_items: Sequence[str],
    features: Mapping[str, tuple[FeatureValues, FeatureValues]],
    vote_corpora: Mapping[str, VoteColumns],
    sampled_matches: Sequence[tuple[str, str]] = (),
    selectivity_threshold: float = 0.9,
    kappa_threshold: float = 0.35,
    error_threshold: float = 0.05,
) -> FeatureFilterReport:
    """Apply the three rejection tests to every proposed feature.

    ``vote_corpora`` maps feature name → its extraction vote corpus (for
    κ); ``sampled_matches`` is a small sample of known/likely join pairs
    used for the leave-one-out error test (the paper runs the sampled join
    with and without each feature).
    """
    report = FeatureFilterReport()
    for name, (left_values, right_values) in features.items():
        # σ is UNKNOWN-aware (see repro.joins.selectivity): UNKNOWN never
        # prunes, so a mostly-UNKNOWN feature has σ near 1 and fails the
        # "ineffective" threshold below even when its few concrete values
        # are perfectly selective — the crowd pass would cost more than
        # the comparisons it saves.
        sigma = estimate_selectivity(
            [left_values.get(item, UNKNOWN) for item in left_items],
            [right_values.get(item, UNKNOWN) for item in right_items],
        )
        corpus = vote_corpora.get(name)
        kappa = feature_kappa(corpus) if corpus else 1.0
        err = error_contribution(
            left_items, right_items, features, name, sampled_matches
        )
        if sigma > selectivity_threshold:
            decision = FeatureDecision(
                name, False, "ineffective: selectivity too high", sigma, kappa, err
            )
        elif kappa < kappa_threshold:
            decision = FeatureDecision(
                name, False, "ambiguous: low inter-rater agreement", sigma, kappa, err
            )
        elif err > error_threshold:
            decision = FeatureDecision(
                name, False, "unsound: prunes sampled matches", sigma, kappa, err
            )
        else:
            decision = FeatureDecision(name, True, "effective", sigma, kappa, err)
        report.decisions.append(decision)
    return report
