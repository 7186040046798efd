"""Combiner interface.

A combiner receives the whole *corpus* of votes for one logical question set
(e.g. every pair of a join) at once, as :class:`~repro.hits.vote_columns.VoteColumns`,
because the QualityAdjust EM learns per-worker confusion across questions.
Per-question combiners like majority vote read the counts the corpus takes
once and shares (:meth:`~repro.hits.vote_columns.VoteColumns.tally` and
friends).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import CombinerError
from repro.hits.hit import Vote
from repro.hits.vote_columns import VoteColumns


class Combiner:
    """Base class: corpus of votes → one answer per question."""

    def combine(self, corpus: VoteColumns) -> dict[str, object]:
        """Combined answer for every question of the corpus, in its order."""
        raise NotImplementedError

    def combine_one(self, votes: Sequence[Vote]) -> object:
        """Convenience for a single question."""
        result = self.combine(VoteColumns.from_corpus({"q": votes}))
        return result["q"]


def combine_corpus(combiner: Combiner, corpus: VoteColumns) -> dict[str, object]:
    """Run a combiner, validating that every question has votes."""
    sizes = corpus.sizes()
    if not all(sizes.values()):
        empty = [qid for qid, votes in sizes.items() if not votes]
        raise CombinerError(
            f"{len(empty)} question(s) have no votes to combine, e.g. {empty[0]!r}"
        )
    return combiner.combine(corpus)
