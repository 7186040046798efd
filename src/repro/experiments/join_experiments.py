"""Join experiments: Table 1, Figure 3, Figure 4, and §3.3.3.

These drive the join interfaces at the Task-Manager level so that the raw
vote corpora are available for offline MajorityVote-vs-QualityAdjust
comparison — exactly how the paper evaluates both combiners on the same
collected assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crowd import SimulatedMarketplace, TimeOfDay
from repro.datasets.celebrities import CelebrityDataset, celebrity_dataset
from repro.experiments.harness import (
    ExperimentTable,
    binary_confusion,
    combine_both_ways,
    merge_vote_corpora,
    single_vote_accuracy,
)
from repro.hits import TaskManager
from repro.hits.hit import (
    JoinGridPayload,
    JoinPair,
    JoinPairsPayload,
    Payload,
    join_qid,
)
from repro.hits.vote_columns import VoteColumns
from repro.joins.batching import all_pairs, smart_grids
from repro.metrics.agreement import worker_accuracies
from repro.metrics.regression import RegressionResult, accuracy_regression
from repro.util.stats import percentile


@dataclass(frozen=True)
class JoinScheme:
    """One interface variant of the celebrity join experiments."""

    name: str
    interface: str  # 'simple' | 'naive' | 'smart'
    batch_size: int = 1
    grid: int = 1

    def units(self, data: CelebrityDataset) -> tuple[list[list[Payload]], int]:
        """(work units, merge batch size) for this scheme."""
        left = data.celeb_refs
        right = data.photo_refs
        question = "Are these two photos the same celebrity?"
        if self.interface in ("simple", "naive"):
            units: list[list[Payload]] = [
                [JoinPairsPayload("samePerson", (JoinPair(l, r),), question=question)]
                for l, r in all_pairs(left, right)
            ]
            return units, (1 if self.interface == "simple" else self.batch_size)
        grids = smart_grids(left, right, self.grid, self.grid)
        return (
            [
                [
                    JoinGridPayload(
                        "samePerson",
                        tuple(lb),
                        tuple(rb),
                        question="Click matching celebrity pairs.",
                    )
                ]
                for lb, rb in grids
            ],
            1,
        )


SCHEMES_TABLE1 = [
    JoinScheme("Simple", "simple"),
    JoinScheme("Naive", "naive", batch_size=5),
    JoinScheme("Smart", "smart", grid=2),
]

SCHEMES_FIG3 = [
    JoinScheme("Simple", "simple"),
    JoinScheme("Naive 3", "naive", batch_size=3),
    JoinScheme("Naive 5", "naive", batch_size=5),
    JoinScheme("Naive 10", "naive", batch_size=10),
    JoinScheme("Smart 2x2", "smart", grid=2),
    JoinScheme("Smart 3x3", "smart", grid=3),
]


def pair_truth(data: CelebrityDataset) -> dict[str, bool]:
    """qid → whether the pair truly matches."""
    matches = set(data.matches)
    return {
        join_qid("samePerson", l, r): (l, r) in matches
        for l, r in all_pairs(data.celeb_refs, data.photo_refs)
    }


def run_join_trial(
    data: CelebrityDataset,
    scheme: JoinScheme,
    seed: int,
    assignments: int = 5,
    time_of_day: TimeOfDay = TimeOfDay.MORNING,
) -> tuple[VoteColumns, "TrialStats"]:
    """One posting of the full celebrity join under one scheme."""
    market = SimulatedMarketplace(data.truth, seed=seed, time_of_day=time_of_day)
    manager = TaskManager(market)
    units, batch = scheme.units(data)
    outcome = manager.run_units(
        units, batch_size=batch, assignments=assignments, label=scheme.name
    )
    corpus = outcome.columns.matching(":join:")
    stats = TrialStats(
        hits=outcome.hit_count,
        assignments=outcome.assignment_count,
        cost=manager.ledger.total_cost,
        latencies=sorted(outcome.assignment_latencies()),
        elapsed_seconds=outcome.elapsed_seconds,
    )
    return corpus, stats


@dataclass
class TrialStats:
    """Economics and latency of one trial."""

    hits: int
    assignments: int
    cost: float
    latencies: list[float]
    elapsed_seconds: float


# ---------------------------------------------------------------------------
# Table 1 — baseline, unbatched-equivalent accuracy at n=20
# ---------------------------------------------------------------------------


def run_table1(seed: int = 0, n_celebs: int = 20) -> ExperimentTable:
    """Table 1: three join implementations, 20 celebrities, MV and QA
    over ten pooled assignments (two trials of five)."""
    data = celebrity_dataset(n=n_celebs, seed=seed)
    truth = pair_truth(data)
    positives = sum(truth.values())
    negatives = len(truth) - positives
    table = ExperimentTable(
        experiment_id="EXP-T1",
        title=f"Baseline join comparison ({n_celebs} celebrities, "
        f"{positives} matches / {negatives} non-matches; paper Table 1)",
        headers=["Implementation", "TruePos (MV)", "TruePos (QA)",
                 "TrueNeg (MV)", "TrueNeg (QA)"],
    )
    table.add_row("IDEAL", positives, positives, negatives, negatives)
    for scheme in SCHEMES_TABLE1:
        corpora = []
        for trial, (trial_seed, tod) in enumerate(
            ((seed * 101 + 1, TimeOfDay.MORNING), (seed * 101 + 2, TimeOfDay.EVENING))
        ):
            corpus, _ = run_join_trial(data, scheme, seed=trial_seed, time_of_day=tod)
            corpora.append(corpus)
        pooled = merge_vote_corpora(corpora)
        mv, qa = combine_both_ways(pooled)
        tp_mv, _, tn_mv, _ = binary_confusion(mv, truth)
        tp_qa, _, tn_qa, _ = binary_confusion(qa, truth)
        table.add_row(scheme.name, tp_mv, tp_qa, tn_mv, tn_qa)
    return table


# ---------------------------------------------------------------------------
# Figure 3 — batching vs accuracy at n=30
# ---------------------------------------------------------------------------


def run_fig3(seed: int = 0, n_celebs: int = 30) -> ExperimentTable:
    """Figure 3: fraction of correct answers per batching scheme."""
    data = celebrity_dataset(n=n_celebs, seed=seed)
    truth = pair_truth(data)
    positives = sum(truth.values())
    negatives = len(truth) - positives
    table = ExperimentTable(
        experiment_id="EXP-F3",
        title=f"Join batching vs accuracy ({n_celebs} celebrities, "
        f"{positives} matches / {negatives} non-matches; paper Figure 3)",
        headers=[
            "Scheme", "TP rate (MV)", "TP rate (QA)",
            "TN rate (MV)", "TN rate (QA)", "Single-vote TP",
        ],
    )
    for scheme in SCHEMES_FIG3:
        corpora = []
        for trial_seed, tod in (
            (seed * 67 + 11, TimeOfDay.MORNING),
            (seed * 67 + 12, TimeOfDay.EVENING),
        ):
            corpus, _ = run_join_trial(data, scheme, seed=trial_seed, time_of_day=tod)
            corpora.append(corpus)
        pooled = merge_vote_corpora(corpora)
        mv, qa = combine_both_ways(pooled)
        tp_mv, _, tn_mv, _ = binary_confusion(mv, truth)
        tp_qa, _, tn_qa, _ = binary_confusion(qa, truth)
        table.add_row(
            scheme.name,
            round(tp_mv / positives, 3),
            round(tp_qa / positives, 3),
            round(tn_mv / negatives, 3),
            round(tn_qa / negatives, 3),
            round(single_vote_accuracy(pooled, truth, positives=True), 3),
        )
    return table


# ---------------------------------------------------------------------------
# Figure 4 — latency percentiles
# ---------------------------------------------------------------------------


def run_fig4(seed: int = 0, n_celebs: int = 30) -> ExperimentTable:
    """Figure 4: 50th/95th/100th percentile completion hours per scheme,
    one morning and one evening trial each."""
    data = celebrity_dataset(n=n_celebs, seed=seed)
    table = ExperimentTable(
        experiment_id="EXP-F4",
        title="Join completion-time percentiles in hours (paper Figure 4)",
        headers=["Scheme", "Trial", "50%", "95%", "100%"],
    )
    for scheme in SCHEMES_FIG3:
        for trial_index, (trial_seed, tod) in enumerate(
            (
                (seed * 41 + 21, TimeOfDay.MORNING),
                (seed * 41 + 22, TimeOfDay.EVENING),
            ),
            start=1,
        ):
            _, stats = run_join_trial(data, scheme, seed=trial_seed, time_of_day=tod)
            hours = [latency / 3600.0 for latency in stats.latencies]
            table.add_row(
                scheme.name,
                f"#{trial_index} ({tod.value})",
                round(percentile(hours, 50), 2),
                round(percentile(hours, 95), 2),
                round(percentile(hours, 100), 2),
            )
    table.note(
        "Batching reduces end-to-end latency; much of the tail is the last "
        "few percent of assignments (the straggler regime)."
    )
    return table


# ---------------------------------------------------------------------------
# §3.3.3 — assignments vs accuracy regression
# ---------------------------------------------------------------------------


def run_assignments_accuracy(seed: int = 0, n_celebs: int = 30) -> tuple[ExperimentTable, RegressionResult]:
    """§3.3.3: regress per-worker accuracy on tasks completed."""
    data = celebrity_dataset(n=n_celebs, seed=seed)
    truth = pair_truth(data)
    scheme = SCHEMES_FIG3[0]  # the two simple 30×30 join tasks
    corpora = []
    for trial_seed in (seed * 13 + 5, seed * 13 + 6):
        corpus, _ = run_join_trial(data, scheme, seed=trial_seed)
        corpora.append(corpus)
    pooled = merge_vote_corpora(corpora)
    stats = worker_accuracies(pooled, truth=lambda qid: truth[qid], min_tasks=3)
    fit = accuracy_regression(stats)
    table = ExperimentTable(
        experiment_id="EXP-S33",
        title="Worker accuracy vs tasks completed (paper §3.3.3: "
        "R²=0.028, positive slope, p<.05)",
        headers=["Workers", "beta", "R^2", "p-value"],
    )
    table.add_row(fit.n, f"{fit.slope:+.1e}", round(fit.r_squared, 4), round(fit.p_value, 4))
    table.note(
        "Work volume explains almost none of the accuracy variance: heavy "
        "workers are not sloppier."
    )
    return table, fit
