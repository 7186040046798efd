"""Rating aggregation (§4.1.2): mean Likert scores and the order they imply."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import QurkError
from repro.hits.vote_columns import VoteColumns
from repro.util.stats import mean, stddev


@dataclass(frozen=True)
class RatingSummary:
    """Aggregate of one item's ratings: μ, σ, and vote count.

    The hybrid sorter's confidence strategy consumes μ ± σ overlaps.
    """

    item: str
    mean: float
    std: float
    count: int


def summarize_ratings(corpus: VoteColumns) -> dict[str, RatingSummary]:
    """Per-item rating summaries from a ``task:rate:item`` vote corpus.

    Each mean and deviation sums the item's ratings in vote order."""
    summaries: dict[str, RatingSummary] = {}
    for qid, (_, ratings) in corpus.grouped().items():
        parts = qid.rsplit(":rate:", 1)
        if len(parts) != 2:
            raise QurkError(f"malformed rating qid {qid!r}")
        item = parts[1]
        values = [float(value) for value in ratings]  # type: ignore[arg-type]
        if not values:
            continue
        summaries[item] = RatingSummary(
            item=item, mean=mean(values), std=stddev(values), count=len(values)
        )
    return summaries


def order_by_rating(summaries: Mapping[str, RatingSummary]) -> list[str]:
    """Items ascending by mean rating (ties by item ref, deterministic)."""
    return sorted(summaries, key=lambda item: (summaries[item].mean, item))
