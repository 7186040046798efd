"""Head-to-head ordering (§4.1.1).

"We can compute the number of HITs in which each item was ranked higher
than other items. This approach, which we call 'head-to-head', provides an
intuitively correct ordering on the data, which is identical to the true
ordering when there are no cycles."

Items are scored by pairwise wins (after per-pair majority voting) and
sorted ascending by score, so the returned order runs least → most — the
same direction as the latent values.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import QurkError
from repro.hits.vote_columns import VoteColumns


def pair_winners_from_votes(
    corpus: VoteColumns, pairs: Mapping[str, tuple[str, str]]
) -> dict[tuple[str, str], str]:
    """Majority winner per comparison question.

    ``pairs`` maps each posted comparison question id to its ``(a, b)``
    item refs (:func:`repro.hits.hit.compare_pairs`); the vote values are
    winning item references. Ties break toward the lexicographically
    smaller item for determinism.
    """
    winners: dict[tuple[str, str], str] = {}
    for qid, counts in corpus.tally().items():
        if not counts:
            continue
        winners[_posted_pair(qid, pairs)] = _leader(counts)
    return winners


def _posted_pair(qid: str, pairs: Mapping[str, tuple[str, str]]) -> tuple[str, str]:
    pair = pairs.get(qid)
    if pair is None:
        raise QurkError(f"comparison question {qid!r} was not posted")
    return pair


def _leader(counts: Mapping[object, int]) -> str:
    top = max(counts.values())
    leaders = sorted([value for value, count in counts.items() if count == top], key=str)
    return str(leaders[0])


class WinCountIndex:
    """Maintained per-item win tallies over a stream of pair outcomes.

    The win-count side of :func:`head_to_head_order`, factored out as a
    maintained index: callers that *accumulate* outcomes — folding in one
    comparison group's winners at a time instead of materialising the
    whole winners map first — pay O(1) per outcome and can read the
    current order (or just the extremes) at any point. Ordering ties
    break by item reference, matching :func:`head_to_head_order` exactly.
    """

    def __init__(self, items: Sequence[str]) -> None:
        self._wins: dict[str, int] = {item: 0 for item in items}

    def record(self, a: str, b: str, winner: str) -> None:
        """Fold in one pair outcome (winner must be one of the two sides)."""
        if winner not in (a, b):
            raise QurkError(
                f"winner {winner!r} is neither side of the pair ({a!r}, {b!r})"
            )
        if winner in self._wins:
            self._wins[winner] += 1

    def wins(self, item: str) -> int:
        """Current win count (0 for unknown items)."""
        return self._wins.get(item, 0)

    def order(self) -> list[str]:
        """Items ascending by (wins, item) — least → most."""
        return sorted(self._wins, key=lambda item: (self._wins[item], item))


def head_to_head_order(
    items: Sequence[str],
    winners: Mapping[tuple[str, str], str],
) -> list[str]:
    """Order items ascending by number of pairwise wins.

    ``winners`` maps (a, b) pairs (any orientation) to the winning item.
    Items never appearing in a pair score zero. Win-count ties break by item
    reference for determinism.
    """
    index = WinCountIndex(items)
    for (a, b), winner in winners.items():
        index.record(a, b, winner)
    # Sort the caller's sequence (not the index keys) so pathological
    # duplicate inputs keep their historical behaviour.
    return sorted(items, key=lambda item: (index.wins(item), item))


def win_fractions(
    items: Sequence[str],
    corpus: VoteColumns,
    pairs: Mapping[str, tuple[str, str]],
) -> dict[str, float]:
    """Raw vote-level win share per item (no per-pair majority first).

    A smoother score than whole-pair wins; used by EXPLAIN output and the
    hybrid sorter's diagnostics. ``pairs`` is as for
    :func:`pair_winners_from_votes`.
    """
    wins: dict[str, int] = {item: 0 for item in items}
    appearances: dict[str, int] = {item: 0 for item in items}
    for qid, counts in corpus.tally().items():
        a, b = _posted_pair(qid, pairs)
        votes = sum(counts.values())
        for side in (a, b):
            if side in appearances:
                appearances[side] += votes
        for value, count in counts.items():
            if value in wins:
                wins[str(value)] += count
    return {
        item: (wins[item] / appearances[item]) if appearances[item] else 0.0
        for item in items
    }
