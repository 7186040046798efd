"""Feature-filtering experiments: Tables 2, 3, 4 and the §3.4 cost story.

The pipeline mirrors §3.3.4: extract gender/hair/skin for all 60 images
(combined and isolated interfaces, two trials each), apply the filters to
the 900-pair cross product, and report errors (true matches pruned), saved
comparisons, and the resulting join cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.context import ExecutionConfig, QueryContext
from repro.core.crowd_calls import run_generative_units
from repro.crowd import SimulatedMarketplace
from repro.datasets.celebrities import FEATURE_TASKS, CelebrityDataset, celebrity_dataset
from repro.experiments.harness import ExperimentTable
from repro.hits import TaskManager
from repro.hits.vote_columns import VoteColumns
from repro.hits.pricing import PricingModel
from repro.joins.feature_filter import (
    confident_feature_values,
    filter_candidates,
    leave_one_out,
)
from repro.language.parser import parse_statements
from repro.metrics.agreement import feature_kappa
from repro.metrics.sampling import estimate_on_samples
from repro.relational.catalog import Catalog
from repro.tasks import task_from_definition

ASSIGNMENTS = 5
PRICING = PricingModel()


@dataclass
class ExtractionRun:
    """One feature-extraction trial's combined values, votes, and cost."""

    trial: int
    combined: bool
    values: dict[str, tuple[dict[str, object], dict[str, object]]]
    corpora: dict[str, VoteColumns]
    extraction_assignments: int

    def candidates(self, data: CelebrityDataset) -> list[tuple[str, str]]:
        """Pairs passing all three feature filters."""
        return filter_candidates(
            data.celeb_refs, data.photo_refs, list(self.values.values())
        )

    def errors_and_saved(self, data: CelebrityDataset) -> tuple[int, int]:
        """(true matches pruned, non-matching comparisons avoided)."""
        candidates = set(self.candidates(data))
        matches = set(data.matches)
        errors = len(matches - candidates)
        total_pairs = len(data.celeb_refs) * len(data.photo_refs)
        saved = total_pairs - len(candidates)
        return errors, saved

    def join_cost(self, data: CelebrityDataset) -> float:
        """Extraction cost plus joining the surviving candidates."""
        join_assignments = len(self.candidates(data)) * ASSIGNMENTS
        return PRICING.cost(self.extraction_assignments + join_assignments)


def _catalog_for(data: CelebrityDataset) -> Catalog:
    catalog = Catalog()
    for statement in parse_statements(data.task_dsl):
        catalog.register_task(task_from_definition(statement))
    return catalog


def run_extraction(
    data: CelebrityDataset, trial: int, combined: bool, seed: int
) -> ExtractionRun:
    """One trial of extracting all three features on both tables."""
    market = SimulatedMarketplace(data.truth, seed=seed)
    manager = TaskManager(market)
    ctx = QueryContext(
        catalog=_catalog_for(data),
        manager=manager,
        config=ExecutionConfig(assignments=ASSIGNMENTS, generative_batch_size=4),
    )
    refs = data.celeb_refs + data.photo_refs
    results, outcome, corpora = run_generative_units(
        {task: refs for task in FEATURE_TASKS},
        ctx,
        label=f"extract-{trial}-{'c' if combined else 'i'}",
        combine_tasks=combined,
    )
    celeb_set = set(data.celeb_refs)
    values = {}
    for task in FEATURE_TASKS:
        # Filtering values use the abstention rule (see joins.feature_filter):
        # contested labels demote to UNKNOWN rather than pruning wrongly.
        confident = confident_feature_values(corpora[task])
        left = {ref: value for ref, value in confident.items() if ref in celeb_set}
        right = {ref: value for ref, value in confident.items() if ref not in celeb_set}
        values[task] = (left, right)
    return ExtractionRun(
        trial=trial,
        combined=combined,
        values=values,
        corpora={task: corpora[task] for task in FEATURE_TASKS},
        extraction_assignments=outcome.assignment_count,
    )


def run_all_extractions(seed: int = 0, n_celebs: int = 30) -> tuple[CelebrityDataset, list[ExtractionRun]]:
    """The paper's four trials: two combined, two isolated."""
    data = celebrity_dataset(n=n_celebs, seed=seed)
    runs = [
        run_extraction(data, trial=1, combined=True, seed=seed * 29 + 1),
        run_extraction(data, trial=2, combined=True, seed=seed * 29 + 2),
        run_extraction(data, trial=1, combined=False, seed=seed * 29 + 3),
        run_extraction(data, trial=2, combined=False, seed=seed * 29 + 4),
    ]
    return data, runs


# ---------------------------------------------------------------------------
# Table 2 — feature filtering effectiveness
# ---------------------------------------------------------------------------


def run_table2(seed: int = 0, n_celebs: int = 30) -> ExperimentTable:
    """Table 2: errors / saved comparisons / join cost per trial."""
    data, runs = run_all_extractions(seed=seed, n_celebs=n_celebs)
    table = ExperimentTable(
        experiment_id="EXP-T2",
        title="Feature filtering effectiveness (paper Table 2; unfiltered "
        f"join would cost ${PRICING.cost(900 * ASSIGNMENTS):.2f})",
        headers=["Trial", "Combined?", "Errors", "Saved comparisons", "Join cost ($)"],
    )
    for run in runs:
        errors, saved = run.errors_and_saved(data)
        table.add_row(
            run.trial,
            "Y" if run.combined else "N",
            errors,
            saved,
            round(run.join_cost(data), 2),
        )
    table.note(
        "Combining features into one HIT both reduces cost and lowers the "
        "error rate (workers treat it as a quick demographic survey)."
    )
    return table


# ---------------------------------------------------------------------------
# Table 3 — leave-one-out analysis
# ---------------------------------------------------------------------------


def run_table3(seed: int = 0, n_celebs: int = 30) -> ExperimentTable:
    """Table 3: omit each feature in turn (first combined trial)."""
    data, runs = run_all_extractions(seed=seed, n_celebs=n_celebs)
    run = runs[0]  # first combined trial, as in the paper
    matches = set(data.matches)
    total_pairs = len(data.celeb_refs) * len(data.photo_refs)
    table = ExperimentTable(
        experiment_id="EXP-T3",
        title="Leave-one-out feature analysis, first combined trial "
        "(paper Table 3)",
        headers=["Omitted feature", "Errors", "Saved comparisons", "Join cost ($)"],
    )
    for omitted in FEATURE_TASKS:
        candidates = set(
            leave_one_out(data.celeb_refs, data.photo_refs, run.values, omit=omitted)
        )
        errors = len(matches - candidates)
        saved = total_pairs - len(candidates)
        cost = PRICING.cost(
            run.extraction_assignments + len(candidates) * ASSIGNMENTS
        )
        table.add_row(omitted, errors, saved, round(cost, 2))
    table.note(
        "Gender is the most effective filter; hair color is responsible for "
        "the filtering errors and is the candidate to drop."
    )
    return table


# ---------------------------------------------------------------------------
# Table 4 — inter-rater agreement (κ), full and 25% samples
# ---------------------------------------------------------------------------


def run_table4(seed: int = 0, n_celebs: int = 30) -> ExperimentTable:
    """Table 4: Fleiss' κ per feature per trial, full data and 50 random
    25% samples of celebrities."""
    data, runs = run_all_extractions(seed=seed, n_celebs=n_celebs)
    refs = data.celeb_refs + data.photo_refs
    table = ExperimentTable(
        experiment_id="EXP-T4",
        title="Inter-rater agreement kappa for features (paper Table 4)",
        headers=[
            "Trial", "Sample", "Combined?",
            "Gender k", "Hair k", "Skin k",
        ],
    )

    def kappa_for(run: ExtractionRun, task: str, subset: list[str]) -> float:
        wanted = set(subset)
        corpus = run.corpora[task]
        return feature_kappa(
            corpus.select(
                [
                    qid
                    for qid in corpus
                    if qid.rsplit(":", 1)[0].rsplit(":gen:", 1)[1] in wanted
                ]
            )
        )

    for run in runs:
        full = [round(kappa_for(run, task, refs), 2) for task in FEATURE_TASKS]
        table.add_row(run.trial, "100%", "Y" if run.combined else "N", *full)
    for run in runs:
        sampled = []
        for task in FEATURE_TASKS:
            estimate = estimate_on_samples(
                refs,
                metric=lambda subset, task=task, run=run: kappa_for(run, task, list(subset)),
                sample_fraction=0.25,
                n_samples=50,
                seed=seed + run.trial,
            )
            sampled.append(f"{estimate.mean:.2f} ({estimate.std:.2f})")
        table.add_row(run.trial, "25%", "Y" if run.combined else "N", *sampled)
    table.note(
        "Gender agreement is high, hair is ambiguous (blond vs white), and "
        "skin agreement improves markedly in the combined interface; 25% "
        "samples track the full-data kappa."
    )
    return table


# ---------------------------------------------------------------------------
# §3.4 cost summary — $67.50 → ~$27 → ~$3
# ---------------------------------------------------------------------------


def run_cost_summary(seed: int = 0, n_celebs: int = 30) -> ExperimentTable:
    """The §3.4 narrative: unfiltered vs filtered vs filtered+batched."""
    data, runs = run_all_extractions(seed=seed, n_celebs=n_celebs)
    run = runs[0]
    candidates = run.candidates(data)
    unfiltered = PRICING.cost(900 * ASSIGNMENTS)
    filtered = run.join_cost(data)
    # Batching the surviving comparisons ten to a HIT divides the join
    # assignments by ten; extraction is already batched.
    import math

    batched_join_hits = math.ceil(len(candidates) / 10)
    batched = PRICING.cost(
        run.extraction_assignments + batched_join_hits * ASSIGNMENTS
    )
    table = ExperimentTable(
        experiment_id="EXP-COST",
        title="Celebrity join cost reduction (paper §3.4: $67.50 → $27 → $2.70)",
        headers=["Configuration", "Cost ($)", "Reduction vs naive"],
    )
    table.add_row("Unfiltered, unbatched", round(unfiltered, 2), "1.0x")
    table.add_row(
        "Feature filtering", round(filtered, 2), f"{unfiltered / filtered:.1f}x"
    )
    table.add_row(
        "Feature filtering + batch 10",
        round(batched, 2),
        f"{unfiltered / batched:.1f}x",
    )
    return table
