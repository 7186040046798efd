"""MajorityVote: the most popular answer wins (§2.1).

Ties break pessimistically for binary questions — the paper identifies a
join pair only "if the number of positive votes outweighs the negative
votes", so an even split is not a match. For general labels, ties break
deterministically by sorted representation so results are reproducible.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Mapping, Sequence

from repro.combine.base import Combiner
from repro.errors import CombinerError
from repro.hits.hit import Vote, count_vote_values

_vote_value = attrgetter("value")


class MajorityVote(Combiner):
    """Per-question plurality with deterministic, pessimistic tie-breaks."""

    def combine(self, corpus: Mapping[str, Sequence[Vote]]) -> dict[str, object]:
        return {qid: self._majority(qid, votes) for qid, votes in corpus.items()}

    @staticmethod
    def _majority(qid: str, votes: Sequence[Vote]) -> object:
        if not votes:
            raise CombinerError(f"no votes for question {qid!r}")
        values = list(map(_vote_value, votes))
        first = values[0]
        if values.count(first) == len(values):
            return first  # unanimous: nothing to tally
        counts = count_vote_values(votes)
        best_count = max(counts.values())
        winners = [value for value, count in counts.items() if count == best_count]
        if len(winners) == 1:
            return winners[0]
        # Binary tie: positives did not outweigh negatives.
        if set(counts) <= {True, False}:
            return False
        return sorted(winners, key=repr)[0]


def vote_fractions(votes: Sequence[Vote]) -> dict[object, float]:
    """Share of votes per label (used by agreement metrics and EXPLAIN)."""
    if not votes:
        return {}
    counts = Counter(vote.value for vote in votes)
    total = sum(counts.values())
    return {value: count / total for value, count in counts.items()}
