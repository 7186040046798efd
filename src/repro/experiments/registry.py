"""Experiment registry: paper artifact → reproduction entry point.

The per-experiment index in executable form (the generated EXPERIMENTS.md
is its rendered counterpart). Each entry names the paper artifact, the
function regenerating it, and the benchmark file that wraps it.
``tests/golden/paper_artifacts.json`` pins every runner's seed-0 table
(:func:`render_experiment`).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentEntry:
    """One paper artifact and how to regenerate it."""

    experiment_id: str
    artifact: str
    runner: str | None
    """Dotted path of the function regenerating the artifact; ``None``
    while the artifact is reproduced only by its benchmark."""
    bench: str


EXPERIMENTS: list[ExperimentEntry] = [
    ExperimentEntry(
        "EXP-T1", "Table 1: baseline join accuracy",
        "repro.experiments.join_experiments.run_table1",
        "benchmarks/bench_table1_join_baseline.py",
    ),
    ExperimentEntry(
        "EXP-F3", "Figure 3: join batching vs accuracy",
        "repro.experiments.join_experiments.run_fig3",
        "benchmarks/bench_fig3_join_batching.py",
    ),
    ExperimentEntry(
        "EXP-F4", "Figure 4: join latency percentiles",
        "repro.experiments.join_experiments.run_fig4",
        "benchmarks/bench_fig4_join_latency.py",
    ),
    ExperimentEntry(
        "EXP-S33", "§3.3.3: worker accuracy regression",
        "repro.experiments.join_experiments.run_assignments_accuracy",
        "benchmarks/bench_sec333_worker_accuracy.py",
    ),
    ExperimentEntry(
        "EXP-T2", "Table 2: feature filtering effectiveness",
        "repro.experiments.feature_experiments.run_table2",
        "benchmarks/bench_table2_feature_filtering.py",
    ),
    ExperimentEntry(
        "EXP-T3", "Table 3: leave-one-out feature analysis",
        "repro.experiments.feature_experiments.run_table3",
        "benchmarks/bench_table3_leave_one_out.py",
    ),
    ExperimentEntry(
        "EXP-T4", "Table 4: feature agreement kappa",
        "repro.experiments.feature_experiments.run_table4",
        "benchmarks/bench_table4_feature_kappa.py",
    ),
    ExperimentEntry(
        "EXP-COST", "§3.4: celebrity join cost reduction",
        "repro.experiments.feature_experiments.run_cost_summary",
        "benchmarks/bench_cost_summary.py",
    ),
    ExperimentEntry(
        "EXP-S422a", "§4.2.2: compare batching (incl. refusal wall)",
        "repro.experiments.sort_experiments.run_compare_batching",
        "benchmarks/bench_sec422_square_sort.py",
    ),
    ExperimentEntry(
        "EXP-S422b", "§4.2.2: rating batching",
        "repro.experiments.sort_experiments.run_rate_batching",
        "benchmarks/bench_sec422_square_sort.py",
    ),
    ExperimentEntry(
        "EXP-S422c", "§4.2.2: rating granularity",
        "repro.experiments.sort_experiments.run_rate_granularity",
        "benchmarks/bench_sec422_square_sort.py",
    ),
    ExperimentEntry(
        "EXP-F6", "Figure 6: query ambiguity (tau, kappa)",
        "repro.experiments.sort_experiments.run_fig6",
        "benchmarks/bench_fig6_query_ambiguity.py",
    ),
    ExperimentEntry(
        "EXP-F7", "Figure 7: hybrid sort tau vs HITs",
        "repro.experiments.sort_experiments.run_fig7",
        "benchmarks/bench_fig7_hybrid_sort.py",
    ),
    ExperimentEntry(
        "EXP-S424", "§4.2.4: hybrid on animal size",
        "repro.experiments.sort_experiments.run_animal_hybrid",
        "benchmarks/bench_fig7_hybrid_sort.py",
    ),
    ExperimentEntry(
        "EXP-T5", "Table 5: end-to-end HIT counts",
        "repro.experiments.end_to_end.run_table5",
        "benchmarks/bench_table5_end_to_end.py",
    ),
    ExperimentEntry(
        "EXP-ABL", "§6 extensions: adaptive votes, batch tuner, budget",
        None,
        "benchmarks/bench_ablation_extensions.py",
    ),
]


def describe_experiments() -> str:
    """Human-readable index of every reproduced artifact."""
    lines = ["Reproduced paper artifacts:"]
    for entry in EXPERIMENTS:
        lines.append(
            f"  {entry.experiment_id:<10} {entry.artifact:<48} -> {entry.bench}"
        )
    return "\n".join(lines)


def render_experiment(entry: ExperimentEntry, seed: int = 0) -> str:
    """Run ``entry``'s runner and render its table.

    Runners that also return a fit or raw series (EXP-S33, EXP-F7) return
    a tuple whose first element is the table.
    """
    if entry.runner is None:
        raise ValueError(f"{entry.experiment_id} has no runner")
    module, _, name = entry.runner.rpartition(".")
    result = getattr(importlib.import_module(module), name)(seed=seed)
    table = result[0] if isinstance(result, tuple) else result
    return table.format()
