"""Agreement bookkeeping: vote columns → κ inputs and worker accuracies."""

from __future__ import annotations

from itertools import repeat
from typing import Callable

from repro.hits.vote_columns import VoteColumns
from repro.metrics.fleiss import fleiss_kappa, modified_kappa


def vote_count_table(corpus: VoteColumns) -> list[dict[object, int]]:
    """Per-question label counts, the input shape for Fleiss' κ (the
    corpus's shared tally, in question order; read-only)."""
    return list(corpus.tally().values())


def feature_kappa(corpus: VoteColumns) -> float:
    """Standard Fleiss' κ over a feature-extraction vote corpus (Table 4)."""
    return fleiss_kappa(vote_count_table(corpus))


def comparison_kappa(corpus: VoteColumns) -> float:
    """Modified κ over pairwise-comparison votes (Figure 6).

    Each comparison question has two possible winners, so k = 2 regardless
    of which item references appear as labels.
    """
    return modified_kappa(vote_count_table(corpus), categories=2)


def comparison_agreement_table(corpus: VoteColumns) -> dict[str, float]:
    """Per-question agreement: share of votes for the most popular winner."""
    return {
        qid: max(counts.values()) / sum(counts.values())
        for qid, counts in corpus.tally().items()
        if counts
    }


def mean_pair_agreement(corpus: VoteColumns) -> float:
    """Mean over yes/no questions of the share of votes on the larger side
    (the join's ``mean_pair_agreement`` signal); truthy values count as
    yes. Every question must have votes."""
    sizes = corpus.sizes()
    truthy = map(corpus.truthy_counts().get, sizes, repeat(0))
    agreements = [
        max(yes, votes - yes) / votes for votes, yes in zip(sizes.values(), truthy)
    ]
    return sum(agreements) / len(agreements)


def worker_accuracies(
    corpus: VoteColumns,
    truth: Callable[[str], object],
    min_tasks: int = 1,
) -> dict[str, tuple[int, float]]:
    """Per-worker (tasks completed, accuracy) against a truth function.

    The §3.3.3 regression feeds on this: does doing more tasks correlate
    with lower accuracy? Workers come in order of first vote, question by
    question.
    """
    completed: dict[str, int] = {}
    correct: dict[str, int] = {}
    for qid, (workers, values) in corpus.grouped().items():
        expected = truth(qid)
        for worker, value in zip(workers, values):
            completed[worker] = completed.get(worker, 0) + 1
            if value == expected:
                correct[worker] = correct.get(worker, 0) + 1
    return {
        worker: (count, correct.get(worker, 0) / count)
        for worker, count in completed.items()
        if count >= min_tasks
    }
