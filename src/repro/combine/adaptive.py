"""Adaptive assignment counts (§2.1/§6 extension).

Instead of always buying five assignments per question, start with a small
number and buy more only for questions whose votes are still contested. The
stopping rule is a vote-margin test: stop once the leading answer leads by
``margin`` votes, or the budget of ``max_votes`` is exhausted.

This is the "algorithms for adaptively deciding whether another answer is
needed" the paper defers to future work; operators expose it via their
``adaptive`` option, and the ablation benchmark measures the assignment
savings at equal accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping

from repro.errors import ConfigError
from repro.util.fields import Rule, check_fields, integer


@dataclass(frozen=True)
class AdaptivePolicy:
    """Parameters of the adaptive collection loop."""

    initial_votes: int = 3
    step_votes: int = 2
    max_votes: int = 9
    margin: int = 2

    rules: ClassVar[dict[str, Rule]] = {
        "initial_votes": integer(1),
        "step_votes": integer(1),
        "max_votes": integer(1),
        "margin": integer(1),
    }

    def __post_init__(self) -> None:
        check_fields(self, self.rules, ConfigError)
        if self.max_votes < self.initial_votes:
            raise ConfigError(
                f"AdaptivePolicy.max_votes must be >= initial_votes, got {self.max_votes!r}"
            )


def vote_margin(counts: Mapping[object, int]) -> int:
    """Lead of the most popular answer over the runner-up, from one
    question's :meth:`~repro.hits.vote_columns.VoteColumns.tally`."""
    if not counts:
        return 0
    ranked = sorted(counts.values(), reverse=True)
    if len(ranked) == 1:
        return ranked[0]
    return ranked[0] - ranked[1]


def needs_more_votes(counts: Mapping[object, int], policy: AdaptivePolicy) -> bool:
    """Whether the stopping rule wants another round for this question,
    given its tally so far."""
    votes = sum(counts.values())
    if votes >= policy.max_votes:
        return False
    # An unreachable margin within budget also stops collection early.
    remaining = policy.max_votes - votes
    current = vote_margin(counts)
    if current >= policy.margin:
        return False
    return current + remaining >= policy.margin
