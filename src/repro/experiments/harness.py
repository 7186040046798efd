"""Shared experiment plumbing: result tables, engine builders, and the
blocking platform adapter."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.combine import MajorityVote, QualityAdjust
from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.crowd import SimulatedMarketplace, TimeOfDay
from repro.crowd.truth import GroundTruth
from repro.hits.vote_columns import VoteColumns
from repro.util.tables import format_table


@dataclass
class ExperimentTable:
    """A paper-table-shaped result: headers, rows, and free-form notes."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append one result row."""
        self.rows.append(list(cells))

    def note(self, text: str) -> None:
        """Attach a free-form observation."""
        self.notes.append(text)

    def format(self) -> str:
        """Render for terminal output (and EXPERIMENTS.md)."""
        parts = [format_table(self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}")]
        parts.extend(f"  * {note}" for note in self.notes)
        return "\n".join(parts)

    def column(self, header: str) -> list[object]:
        """One column by header name."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_by(self, header: str, value: object) -> list[object]:
        """The first row whose ``header`` cell equals ``value``."""
        index = self.headers.index(header)
        for row in self.rows:
            if row[index] == value:
                return row
        raise KeyError(f"no row with {header}={value!r}")

    def cell(self, row_key: object, column: str, key_column: str | None = None) -> object:
        """Cell lookup by row key (first column by default) and column name."""
        key_column = key_column or self.headers[0]
        return self.row_by(key_column, row_key)[self.headers.index(column)]


class BlockingPlatform:
    """A marketplace seen through the blocking ``post_hit_group`` call only.

    Offers only the post-and-wait protocol, so the Task Manager wraps it in
    its :class:`~repro.hits.manager.BlockingAdapter` and an engine or
    session built on it posts every HIT group blocking, the way it would on
    a platform that can only post and wait (such as a thin MTurk shim).
    Tests use it to check that a blocking platform gets the same rows,
    votes, and costs as the same simulated marketplace with overlap.
    ``stats`` passes through so EXPLAIN footers still report marketplace
    counters, and ``faults`` so the resilience layer sees the fault plan.
    """

    def __init__(self, inner: SimulatedMarketplace) -> None:
        self.inner = inner

    def post_hit_group(self, hits, group_id=None):
        """Post a group and wait for it (the only posting style offered)."""
        return self.inner.post_hit_group(hits, group_id=group_id)

    @property
    def clock_seconds(self) -> float:
        """The wrapped marketplace's virtual clock."""
        return self.inner.clock_seconds

    @property
    def stats(self):
        """The wrapped marketplace's counters."""
        return self.inner.stats

    @property
    def faults(self):
        """The wrapped marketplace's fault plan."""
        return self.inner.faults


def build_engine(
    truth: GroundTruth,
    seed: int,
    config: ExecutionConfig,
    time_of_day: TimeOfDay = TimeOfDay.MORNING,
) -> tuple[Qurk, SimulatedMarketplace]:
    """A fresh engine + marketplace pair for one trial."""
    market = SimulatedMarketplace(truth, seed=seed, time_of_day=time_of_day)
    return Qurk(platform=market, config=config), market


def merge_vote_corpora(corpora: Sequence[VoteColumns]) -> VoteColumns:
    """Pool votes across trials (the paper aggregates two 5-assignment
    trials into ten votes per question)."""
    merged = VoteColumns()
    for corpus in corpora:
        merged.extend(corpus)
    return merged


def binary_confusion(
    decisions: Mapping[str, object], truth: Mapping[str, bool]
) -> tuple[int, int, int, int]:
    """(TP, FN, TN, FP) of combined answers against ground truth."""
    tp = fn = tn = fp = 0
    for qid, expected in truth.items():
        decided = bool(decisions.get(qid, False))
        if expected:
            tp += decided
            fn += not decided
        else:
            tn += not decided
            fp += decided
    return tp, fn, tn, fp


def combine_both_ways(
    corpus: VoteColumns,
) -> tuple[dict[str, object], dict[str, object]]:
    """(MajorityVote decisions, QualityAdjust decisions) for one corpus."""
    mv = MajorityVote().combine(corpus)
    qa = QualityAdjust().combine(corpus)
    return mv, qa


def single_vote_accuracy(
    corpus: VoteColumns, truth: Mapping[str, bool], positives: bool
) -> float:
    """Expected accuracy of trusting one random worker (§3.3.2's 78%/53%)."""
    tally = corpus.tally()
    correct = 0
    total = 0
    for qid, expected in truth.items():
        if expected is not positives:
            continue
        for value, count in tally.get(qid, {}).items():
            total += count
            correct += count * (bool(value) is expected)
    return correct / total if total else float("nan")
