"""§6 extension ablations: adaptive votes, worker banning, caching.

The paper's discussion section proposes several mechanisms beyond the core
operators; this module measures each one against the same simulated
marketplace so the benchmarks (and tests) can assert their value:

* **Adaptive assignment counts** — stop buying votes once a question's
  margin is decisive (§2.1/§6).
* **Worker banning** — use QualityAdjust's worker-quality scores to ban
  spammers, then measure the accuracy of subsequent work (§6, "one could
  use the output of the QA algorithm to ban Turkers").
* **Task-cache reruns** — TurKit-style crash-and-rerun: a re-executed
  query costs nothing (§2.6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.combine import QualityAdjust
from repro.combine.adaptive import AdaptivePolicy
from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.crowd import SimulatedMarketplace
from repro.datasets.celebrities import celebrity_dataset
from repro.experiments.harness import ExperimentTable
from repro.hits.cache import TaskCache
from repro.joins.batching import JoinInterface

JOIN_QUERY = (
    "SELECT c.name, p.id FROM celeb c JOIN photos p ON samePerson(c.img, p.img)"
)


def _join_correct(result) -> int:
    return sum(
        1
        for row in result.rows
        if str(row["c.name"]).rsplit("-", 1)[1] == str(row["p.id"])
    )


@dataclass
class AdaptiveAblation:
    """Fixed-replication vs adaptive-replication outcomes."""

    fixed_assignments: int
    fixed_correct: int
    adaptive_assignments: int
    adaptive_correct: int

    @property
    def savings_fraction(self) -> float:
        """Share of assignments the adaptive policy avoided."""
        if self.fixed_assignments == 0:
            return 0.0
        return 1.0 - self.adaptive_assignments / self.fixed_assignments


def run_adaptive_ablation(seed: int = 0, n_celebs: int = 12) -> AdaptiveAblation:
    """Same join, fixed five votes vs the margin-based adaptive policy."""
    data = celebrity_dataset(n=n_celebs, seed=seed)

    def run(config: ExecutionConfig):
        market = SimulatedMarketplace(data.truth, seed=seed + 1)
        engine = Qurk(platform=market, config=config)
        engine.register_table(data.celebs)
        engine.register_table(data.photos)
        engine.define(data.task_dsl)
        result = engine.execute(JOIN_QUERY)
        return result.assignment_count, _join_correct(result)

    fixed_assignments, fixed_correct = run(
        ExecutionConfig(join_interface=JoinInterface.SIMPLE, assignments=5)
    )
    adaptive_assignments, adaptive_correct = run(
        ExecutionConfig(
            join_interface=JoinInterface.SIMPLE,
            adaptive=AdaptivePolicy(
                initial_votes=3, step_votes=2, max_votes=9, margin=2
            ),
        )
    )
    return AdaptiveAblation(
        fixed_assignments=fixed_assignments,
        fixed_correct=fixed_correct,
        adaptive_assignments=adaptive_assignments,
        adaptive_correct=adaptive_correct,
    )


@dataclass
class BanAblation:
    """Spammer identification + banning outcome."""

    identified: list[str]
    true_spammers_identified: int
    false_accusations: int
    accuracy_before: float
    accuracy_after: float


def run_ban_ablation(seed: int = 0, n_celebs: int = 25) -> BanAblation:
    """Identify spammers with QA on one join, ban them, rerun, compare
    single-vote accuracy."""
    data = celebrity_dataset(n=n_celebs, seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed + 2)
    engine = Qurk(
        platform=market,
        config=ExecutionConfig(join_interface=JoinInterface.NAIVE, naive_batch_size=5),
    )
    engine.register_table(data.celebs)
    engine.register_table(data.photos)
    engine.define(data.task_dsl)

    matches = set(data.matches)

    def single_vote_accuracy() -> float:
        result = engine.execute(JOIN_QUERY)
        # Recompute from the raw votes of the last run via the ledger-less
        # route: re-post and inspect votes directly.
        return _join_correct(result) / n_celebs

    accuracy_before = single_vote_accuracy()

    # Collect a corpus to fit QA on.
    from repro.experiments.join_experiments import JoinScheme, run_join_trial

    corpus, _ = run_join_trial(
        data, JoinScheme("Naive 5", "naive", batch_size=5), seed=seed + 3
    )
    qa = QualityAdjust()
    qa.combine(corpus)
    # Join corpora are heavily class-imbalanced (1/N positives), so spammer
    # identification uses the class-balanced confusion diagonal (an
    # always-no worker scores ~0.5) plus a volume floor (the EM cannot
    # judge workers it barely observed).
    balanced = qa.balanced_worker_accuracy()
    identified = sorted(
        worker
        for worker, score in balanced.items()
        if score < 0.58 and qa.last_vote_counts.get(worker, 0) >= 30
    )
    pool = market.pool
    true_spammers = sum(
        1 for worker_id in identified if pool.by_id(worker_id).is_spammer
    )
    false_accusations = sum(
        1
        for worker_id in identified
        if pool.by_id(worker_id).archetype == "reliable"
    )
    pool.ban(identified)
    accuracy_after = single_vote_accuracy()
    return BanAblation(
        identified=identified,
        true_spammers_identified=true_spammers,
        false_accusations=false_accusations,
        accuracy_before=accuracy_before,
        accuracy_after=accuracy_after,
    )


@dataclass
class CacheAblation:
    """First-run vs rerun economics with the task cache enabled."""

    first_cost: float
    rerun_extra_cost: float
    rerun_matches_first: bool


def run_cache_ablation(seed: int = 0, n_celebs: int = 10) -> CacheAblation:
    """Run the same query twice through one engine with a TaskCache."""
    data = celebrity_dataset(n=n_celebs, seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed + 4)
    engine = Qurk(
        platform=market,
        config=ExecutionConfig(join_interface=JoinInterface.NAIVE, naive_batch_size=5),
        cache=TaskCache(),
    )
    engine.register_table(data.celebs)
    engine.register_table(data.photos)
    engine.define(data.task_dsl)
    first = engine.execute(JOIN_QUERY)
    rerun = engine.execute(JOIN_QUERY)
    return CacheAblation(
        first_cost=first.total_cost,
        rerun_extra_cost=rerun.total_cost,
        rerun_matches_first=sorted(map(str, first.rows)) == sorted(map(str, rerun.rows)),
    )


def run_ablation_table(seed: int = 0) -> ExperimentTable:
    """All three ablations in one paper-style table."""
    table = ExperimentTable(
        experiment_id="EXP-ABL",
        title="§6 extensions, measured",
        headers=["Extension", "Metric", "Value"],
    )
    adaptive = run_adaptive_ablation(seed=seed)
    table.add_row(
        "Adaptive votes", "assignments saved",
        f"{adaptive.savings_fraction:.0%} "
        f"({adaptive.fixed_assignments} → {adaptive.adaptive_assignments})",
    )
    table.add_row(
        "Adaptive votes", "matches found (fixed vs adaptive)",
        f"{adaptive.fixed_correct} vs {adaptive.adaptive_correct}",
    )
    ban = run_ban_ablation(seed=seed)
    table.add_row(
        "QA worker banning", "spammers identified (false accusations)",
        f"{ban.true_spammers_identified} ({ban.false_accusations})",
    )
    table.add_row(
        "QA worker banning", "join recall before → after ban",
        f"{ban.accuracy_before:.2f} → {ban.accuracy_after:.2f}",
    )
    cache = run_cache_ablation(seed=seed)
    table.add_row(
        "Task cache rerun", "first cost → rerun extra cost",
        f"${cache.first_cost:.2f} → ${cache.rerun_extra_cost:.2f}",
    )
    return table
