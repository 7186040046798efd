"""MajorityVote: the most popular answer wins (§2.1).

Ties break pessimistically for binary questions — the paper identifies a
join pair only "if the number of positive votes outweighs the negative
votes", so an even split is not a match. For general labels, ties break
deterministically by sorted representation so results are reproducible.
"""

from __future__ import annotations

from typing import Mapping

from repro.combine.base import Combiner
from repro.errors import CombinerError
from repro.hits.vote_columns import VoteColumns

_BINARY = frozenset((True, False))


class MajorityVote(Combiner):
    """Per-question plurality with deterministic, pessimistic tie-breaks."""

    def combine(self, corpus: VoteColumns) -> dict[str, object]:
        sizes = corpus.sizes()
        if not all(sizes.values()):
            empty = next(qid for qid, votes in sizes.items() if not votes)
            raise CombinerError(f"no votes for question {empty!r}")
        if corpus.all_bool():
            # Yes/no questions need only the True count: True wins exactly
            # when it outnumbers False, and a tie is False (as below).
            truthy = corpus.truthy_counts().get
            return {qid: truthy(qid, 0) * 2 > votes for qid, votes in sizes.items()}
        decisions: dict[str, object] = {}
        for qid, counts in corpus.tally().items():
            if len(counts) == 1:
                # Unanimous: the first vote's value (equal values merged).
                decisions[qid] = next(iter(counts))
                continue
            best_count = max(counts.values())
            winners = [value for value, count in counts.items() if count == best_count]
            if len(winners) == 1:
                decisions[qid] = winners[0]
            elif counts.keys() <= _BINARY:
                # Binary tie: positives did not outweigh negatives.
                decisions[qid] = False
            else:
                decisions[qid] = sorted(winners, key=repr)[0]
        return decisions


def vote_fractions(counts: Mapping[object, int]) -> dict[object, float]:
    """Share of votes per label, from one question's tally
    (:meth:`~repro.hits.vote_columns.VoteColumns.tally`)."""
    total = sum(counts.values())
    if not total:
        return {}
    return {value: count / total for value, count in counts.items()}
