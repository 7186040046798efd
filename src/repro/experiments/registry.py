"""Experiment registry: the one index of the paper's artifacts.

Each entry names the paper artifact, the function regenerating it, the
paper's claim about it and the reproduction's verdict on that claim.
``tests/golden/paper_artifacts.json`` pins every runner's seed-0 table
(:func:`render_experiment`), ``tests/paper_checks.py`` holds the shape
each result must show, and ``tests/test_paper_artifacts.py`` applies both
to one run. ``scripts/generate_experiments_md.py`` renders EXPERIMENTS.md
from this index and the pins.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

HOLDS, SHAPE, DEVIATES = "holds", "holds in shape", "deviates"
VERDICTS = (HOLDS, SHAPE, DEVIATES)
"""An artifact's verdict: the paper's numbers are met; only its shape (who
wins, by what factor, where crossovers fall) is; or a reported number is
not, which README's "Where the reproduction departs from the paper" names
with its cause."""


@dataclass(frozen=True)
class ExperimentEntry:
    """One paper artifact, how to regenerate it, and what it must show."""

    experiment_id: str
    artifact: str
    runner: str
    """Dotted path of the function regenerating the artifact."""
    claim: str
    """What the paper reports for the artifact."""
    verdict: str
    """One of :data:`VERDICTS`."""


EXPERIMENTS: list[ExperimentEntry] = [
    ExperimentEntry(
        "EXP-T1", "Table 1: baseline join accuracy",
        "repro.experiments.join_experiments.run_table1",
        "Without batching all three join implementations are near-ideal: "
        "19-20 of 20 true positives and 376-380 of 380 true negatives.",
        HOLDS,
    ),
    ExperimentEntry(
        "EXP-F3", "Figure 3: join batching vs accuracy",
        "repro.experiments.join_experiments.run_fig3",
        "Batching costs a few true positives under MajorityVote (Smart 3x3 "
        "worst) and QualityAdjust recovers them; true negatives are "
        "unaffected; combined answers beat one worker, whose true-positive "
        "rate falls from 78% (Simple) to 53% (Smart 3x3).",
        SHAPE,
    ),
    ExperimentEntry(
        "EXP-F4", "Figure 4: join latency percentiles",
        "repro.experiments.join_experiments.run_fig4",
        "Batching cuts latency though each HIT holds more work: Simple is "
        "slowest (about 1-2 h, trial #2 worse), the batched variants finish "
        "well under 1 h, and the last 5% of assignments take half the wait.",
        SHAPE,
    ),
    ExperimentEntry(
        "EXP-S33", "§3.3.3: worker accuracy regression",
        "repro.experiments.join_experiments.run_assignments_accuracy",
        "R² = 0.028 with a slightly positive slope, p < .05: how much a "
        "worker does explains almost none of their accuracy, so there is "
        "no fatigue effect to correct for.",
        DEVIATES,
    ),
    ExperimentEntry(
        "EXP-T2", "Table 2: feature filtering effectiveness",
        "repro.experiments.feature_experiments.run_table2",
        "Filters cut the $67.50 unfiltered join by more than half (errors "
        "1/3/5/5, saved 592/623/633/646, cost $27.52/$25.05/$33.15/$32.18), "
        "and one combined HIT beats isolated ones on both errors and cost.",
        SHAPE,
    ),
    ExperimentEntry(
        "EXP-T3", "Table 3: leave-one-out feature analysis",
        "repro.experiments.feature_experiments.run_table3",
        "Omitting gender costs the most ($45.30, 1 error), then hair "
        "($34.35, 0 errors), then skin ($31.28, 1 error): gender is the "
        "workhorse filter and hair causes the errors, so hair is dropped.",
        SHAPE,
    ),
    ExperimentEntry(
        "EXP-T4", "Table 4: feature agreement kappa",
        "repro.experiments.feature_experiments.run_table4",
        "Gender κ is high in every trial (.85-.94), hair κ low (.26-.45), "
        "skin κ higher combined than isolated (.73/.95 against .45/.47), "
        "and κ on 25% samples tracks the full value.",
        SHAPE,
    ),
    ExperimentEntry(
        "EXP-COST", "§3.4: celebrity join cost reduction",
        "repro.experiments.feature_experiments.run_cost_summary",
        "$67.50 unfiltered, $27 with feature filtering, $2.70 adding "
        "10-way batching: more than an order of magnitude.",
        DEVIATES,
    ),
    ExperimentEntry(
        "EXP-S422a", "§4.2.2: compare batching (incl. refusal wall)",
        "repro.experiments.sort_experiments.run_compare_batching",
        "Compare reaches τ = 1.0 at group sizes 5 and 10, in about 0.3 h "
        "and 1 h; workers refuse groups of 20.",
        DEVIATES,
    ),
    ExperimentEntry(
        "EXP-S422b", "§4.2.2: rating batching",
        "repro.experiments.sort_experiments.run_rate_batching",
        "Rate reaches τ ≈ 0.78 (std 0.058) whatever the batch size, 1-10.",
        HOLDS,
    ),
    ExperimentEntry(
        "EXP-S422c", "§4.2.2: rating granularity",
        "repro.experiments.sort_experiments.run_rate_granularity",
        "Rating holds as the dataset grows from 20 to 50 items: τ ≈ 0.798 "
        "(std 0.042).",
        DEVIATES,
    ),
    ExperimentEntry(
        "EXP-F6", "Figure 6: query ambiguity (tau, kappa)",
        "repro.experiments.sort_experiments.run_fig6",
        "κ and τ both fall from Q1 to Q5 as ambiguity rises; Q4 (Saturn) "
        "still agrees better than Q5 (random), whose κ sits at chance; "
        "10-item samples estimate both.",
        SHAPE,
    ),
    ExperimentEntry(
        "EXP-F7", "Figure 7: hybrid sort tau vs HITs",
        "repro.experiments.sort_experiments.run_fig7",
        "Compare reaches τ = 1.0 in 78 HITs (a pair-count lower bound) and "
        "Rate τ ≈ 0.78 in 8; Window 6 passes τ 0.95 within 30 more HITs and "
        "converges in half of Compare's budget, Window 5 (stride divides "
        "40) plateaus, and Random lags.",
        SHAPE,
    ),
    ExperimentEntry(
        "EXP-S424", "§4.2.4: hybrid on animal size",
        "repro.experiments.sort_experiments.run_animal_hybrid",
        "The hybrid lifts τ from .76 to .90 within 20 iterations.",
        DEVIATES,
    ),
    ExperimentEntry(
        "EXP-T5", "Table 5: end-to-end HIT counts",
        "repro.experiments.end_to_end.run_table5",
        "1116 HITs unoptimized (Simple join + Compare), 77 optimized "
        "(filter + Smart 5x5 + Rate), 14.5x fewer; joins follow "
        "|R||S|/(r·s): filtered Simple 628, Naive 160, Smart 3x3 108, "
        "5x5 66; unfiltered 1055, 211, 43; Compare 61 against Rate 11.",
        SHAPE,
    ),
    ExperimentEntry(
        "EXP-ABL", "§6 extensions: adaptive votes, banning, cached reruns",
        "repro.experiments.ablations.run_ablation_table",
        "Proposed, not measured: stop buying votes once a question's margin "
        "is decisive, ban the spammers QualityAdjust scores low, and rerun "
        "a crashed query from the task cache at no cost (§2.6, §6).",
        SHAPE,
    ),
]


def describe_experiments() -> str:
    """Human-readable index of every reproduced artifact."""
    lines = ["Reproduced paper artifacts:"]
    for entry in EXPERIMENTS:
        lines.append(
            f"  {entry.experiment_id:<10} {entry.artifact:<54} {entry.verdict}"
        )
    return "\n".join(lines)


def run_experiment(entry: ExperimentEntry, seed: int = 0) -> object:
    """Run ``entry``'s runner; its whole result.

    Most runners return an :class:`~repro.experiments.harness.
    ExperimentTable`. EXP-S33 and EXP-F7 return a tuple led by the table,
    with the regression fit or the per-strategy τ traces after it.
    """
    module, _, name = entry.runner.rpartition(".")
    return getattr(importlib.import_module(module), name)(seed=seed)


def render_experiment(result: object) -> str:
    """The table text of a runner's result (:func:`run_experiment`)."""
    table = result[0] if isinstance(result, tuple) else result
    return table.format()
