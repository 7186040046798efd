"""Sort experiments: §4.2.2 microbenchmarks, Figure 6, and Figure 7."""

from __future__ import annotations

from typing import Sequence

from repro.core.context import ExecutionConfig, QueryContext
from repro.core.sort_exec import compare_sort, rate_sort, run_compare_window
from repro.crowd import SimulatedMarketplace
from repro.datasets.animals import ANIMAL_QUERIES, animals_dataset
from repro.datasets.squares import squares_dataset
from repro.errors import HITUncompletedError
from repro.experiments.harness import ExperimentTable
from repro.hits import TaskManager
from repro.hits.hit import compare_pairs
from repro.language.parser import parse_statements
from repro.metrics.agreement import comparison_kappa
from repro.metrics.kendall import kendall_tau_from_orders
from repro.relational.catalog import Catalog
from repro.sorting.hybrid import HybridSorter
from repro.sorting.rating import RatingSummary
from repro.tasks import task_from_definition
from repro.tasks.rank import RankTask
from repro.util.rng import stable_seed
from repro.util.stats import mean, stddev


def make_sort_context(truth, dsl: str, seed: int, **config) -> QueryContext:
    """A context wired to a fresh marketplace for one sort trial."""
    catalog = Catalog()
    for statement in parse_statements(dsl):
        catalog.register_task(task_from_definition(statement))
    market = SimulatedMarketplace(truth, seed=seed)
    return QueryContext(
        catalog=catalog,
        manager=TaskManager(market),
        config=ExecutionConfig(seed=seed, **config),
    )


def _task(ctx: QueryContext, name: str) -> RankTask:
    from repro.tasks.registry import ROLE_RANK, task_role

    task = ctx.catalog.task(name)
    if task_role(task) != ROLE_RANK:
        raise TypeError(f"sort experiment needs a Rank task, got {type(task).__name__}")
    return task


# ---------------------------------------------------------------------------
# §4.2.2 — square sort microbenchmarks
# ---------------------------------------------------------------------------


def run_compare_batching(seed: int = 0, n: int = 40) -> ExperimentTable:
    """Compare accuracy/latency as the group size S grows (5, 10, 20).

    S=20 exceeds every worker's effort threshold and goes uncompleted —
    the paper stopped that experiment "after several hours".
    """
    data = squares_dataset(n=n, seed=seed)
    table = ExperimentTable(
        experiment_id="EXP-S422a",
        title=f"Compare batching on {n} squares (paper §4.2.2)",
        headers=["Group size", "tau", "HITs", "Hours", "Completed?"],
    )
    for group_size in (5, 10, 20):
        ctx = make_sort_context(
            data.truth,
            data.task_dsl,
            seed=seed * 7 + group_size,
            sort_method="compare",
            compare_group_size=group_size,
        )
        try:
            order, _ = compare_sort(_task(ctx, "squareSorter"), data.items, ctx)
        except HITUncompletedError:
            table.add_row(group_size, "-", "-", "-", "no (workers refused)")
            continue
        tau = kendall_tau_from_orders(order, data.true_order)
        ledger = ctx.manager.ledger
        hours = ctx.manager.platform.clock_seconds / 3600.0
        table.add_row(group_size, round(tau, 3), ledger.total_hits, round(hours, 2), "yes")
    return table


def run_rate_batching(seed: int = 0, n: int = 40) -> ExperimentTable:
    """Rate accuracy as the per-HIT batch size varies 1..10 (τ ≈ 0.78)."""
    data = squares_dataset(n=n, seed=seed)
    table = ExperimentTable(
        experiment_id="EXP-S422b",
        title=f"Rating batching on {n} squares (paper §4.2.2: avg tau 0.78, std 0.058)",
        headers=["Batch size", "tau", "HITs"],
    )
    taus = []
    for batch in (1, 2, 5, 10):
        ctx = make_sort_context(
            data.truth,
            data.task_dsl,
            seed=seed * 11 + batch,
            sort_method="rate",
            rate_batch_size=batch,
        )
        order, summaries = rate_sort(_task(ctx, "squareSorter"), data.items, ctx)
        tau = kendall_tau_from_orders(
            data.true_order,
            data.true_order,
            scores_a={ref: i for i, ref in enumerate(data.true_order)},
            scores_b={ref: summaries[ref].mean for ref in data.true_order},
        )
        taus.append(tau)
        table.add_row(batch, round(tau, 3), ctx.manager.ledger.total_hits)
    table.note(f"avg tau {mean(taus):.3f}, std {stddev(taus):.3f}")
    return table


def run_rate_granularity(seed: int = 0) -> ExperimentTable:
    """Rate accuracy as dataset size grows 20..50 (batch fixed at 5)."""
    table = ExperimentTable(
        experiment_id="EXP-S422c",
        title="Rating granularity vs dataset size (paper §4.2.2: avg tau "
        "0.798, std 0.042)",
        headers=["Dataset size", "tau", "HITs"],
    )
    taus = []
    for n in range(20, 51, 5):
        data = squares_dataset(n=n, seed=seed)
        ctx = make_sort_context(
            data.truth,
            data.task_dsl,
            seed=seed * 13 + n,
            sort_method="rate",
            rate_batch_size=5,
        )
        order, summaries = rate_sort(_task(ctx, "squareSorter"), data.items, ctx)
        tau = kendall_tau_from_orders(
            data.true_order,
            data.true_order,
            scores_a={ref: i for i, ref in enumerate(data.true_order)},
            scores_b={ref: summaries[ref].mean for ref in data.true_order},
        )
        taus.append(tau)
        table.add_row(n, round(tau, 3), ctx.manager.ledger.total_hits)
    table.note(f"avg tau {mean(taus):.3f}, std {stddev(taus):.3f}")
    return table


# ---------------------------------------------------------------------------
# Figure 6 — query ambiguity: τ and modified κ for Q1..Q5
# ---------------------------------------------------------------------------


def run_fig6(seed: int = 0, sample_size: int = 10, n_samples: int = 50) -> ExperimentTable:
    """Figure 6: per-query modified κ (compare votes) and τ (rate vs
    compare), on full data and on 10-item samples."""
    squares = squares_dataset(n=20, seed=seed)
    animals = animals_dataset()
    table = ExperimentTable(
        experiment_id="EXP-F6",
        title="Query ambiguity: tau and kappa for Q1-Q5 (paper Figure 6)",
        headers=["Query", "Task", "kappa", "kappa (10-sample)", "tau", "tau (10-sample)"],
    )
    for query_id, task_name in ANIMAL_QUERIES.items():
        if task_name == "squareSorter":
            data_items, truth, dsl = squares.items, squares.truth, squares.task_dsl
        else:
            data_items, truth, dsl = animals.items, animals.truth, animals.task_dsl
        ctx = make_sort_context(
            truth, dsl, seed=seed * 17 + stable_seed(query_id) % 100,
            sort_method="compare", compare_group_size=5,
        )
        task = _task(ctx, task_name)
        compare_order, corpus = compare_sort(task, data_items, ctx)
        _, summaries = rate_sort(task, data_items, ctx)

        kappa_full = comparison_kappa(corpus)
        rate_scores = {ref: summaries[ref].mean for ref in data_items}
        compare_scores = {ref: i for i, ref in enumerate(compare_order)}
        tau_full = kendall_tau_from_orders(
            data_items, data_items, scores_a=compare_scores, scores_b=rate_scores
        )

        # Sampled estimates: restrict both metrics to 10-item subsets.
        from repro.metrics.sampling import estimate_on_samples

        def kappa_metric(subset: Sequence[str]) -> float:
            # The subset's own pairs, decoded from the refs themselves (an
            # item ref may contain the question id's ``|``).
            pairs = compare_pairs(task.name, [list(subset)])
            return comparison_kappa(corpus.select([qid for qid in corpus if qid in pairs]))

        def tau_metric(subset: Sequence[str]) -> float:
            subset = list(subset)
            return kendall_tau_from_orders(
                subset,
                subset,
                scores_a={r: compare_scores[r] for r in subset},
                scores_b={r: rate_scores[r] for r in subset},
            )

        kappa_sample = estimate_on_samples(
            data_items, kappa_metric, sample_size=sample_size,
            n_samples=n_samples, seed=seed + 1,
        )
        tau_sample = estimate_on_samples(
            data_items, tau_metric, sample_size=sample_size,
            n_samples=n_samples, seed=seed + 2,
        )
        table.add_row(
            query_id,
            task_name,
            round(kappa_full, 3),
            f"{kappa_sample.mean:.2f} ({kappa_sample.std:.2f})",
            round(tau_full, 3),
            f"{tau_sample.mean:.2f} ({tau_sample.std:.2f})",
        )
    table.note(
        "kappa and tau both fall as queries get more ambiguous; Q5 (random) "
        "bottoms out near zero. Sampling 10 items estimates both metrics."
    )
    return table


# ---------------------------------------------------------------------------
# Figure 7 — hybrid sort: τ vs additional comparison HITs
# ---------------------------------------------------------------------------


def run_fig7(
    seed: int = 0, n: int = 40, iterations: int = 40
) -> tuple[ExperimentTable, dict[str, list[float]]]:
    """Figure 7: τ after each hybrid iteration for the four strategies,
    plus the Compare and Rate endpoints.

    Returns the summary table and the full per-strategy τ traces.
    """
    data = squares_dataset(n=n, seed=seed)
    table = ExperimentTable(
        experiment_id="EXP-F7",
        title=f"Hybrid sort on {n} squares, window size 5 (paper Figure 7)",
        headers=["Method", "HITs", "tau@10", "tau@20", "tau@30", "final tau"],
    )

    # Endpoints.
    ctx = make_sort_context(
        data.truth, data.task_dsl, seed=seed * 19 + 1,
        sort_method="compare", compare_group_size=5,
    )
    compare_order, _ = compare_sort(_task(ctx, "squareSorter"), data.items, ctx)
    compare_hits = ctx.manager.ledger.total_hits
    compare_tau = kendall_tau_from_orders(compare_order, data.true_order)
    table.add_row("Compare", compare_hits, "-", "-", "-", round(compare_tau, 3))

    traces: dict[str, list[float]] = {}
    strategies = {
        "Random": ("random", 0),
        "Confidence": ("confidence", 0),
        "Window 5": ("window", 5),
        "Window 6": ("window", 6),
    }
    rate_hits = None
    for label, (strategy_name, stride) in strategies.items():
        ctx = make_sort_context(
            data.truth, data.task_dsl, seed=seed * 19 + 2,
            sort_method="hybrid", hybrid_strategy=strategy_name,
            hybrid_stride=max(1, stride), compare_group_size=5, rate_batch_size=5,
        )
        task = _task(ctx, "squareSorter")
        _, summaries = rate_sort(task, data.items, ctx)
        if rate_hits is None:
            rate_hits = ctx.manager.ledger.total_hits
            rate_tau = kendall_tau_from_orders(
                data.true_order,
                data.true_order,
                scores_a={ref: i for i, ref in enumerate(data.true_order)},
                scores_b={ref: summaries[ref].mean for ref in data.true_order},
            )
            table.add_row("Rate", rate_hits, "-", "-", "-", round(rate_tau, 3))
        from repro.core.sort_exec import make_strategy

        sorter = HybridSorter(
            summaries,
            make_strategy(strategy_name, window_size=5, stride=max(1, stride), seed=seed),
            compare=lambda window, ctx=ctx, task=task: run_compare_window(task, window, ctx),
        )
        trace = []
        for _ in range(iterations):
            sorter.step()
            trace.append(kendall_tau_from_orders(sorter.order, data.true_order))
        traces[label] = trace
        table.add_row(
            label,
            iterations,
            round(trace[9], 3),
            round(trace[19], 3),
            round(trace[29], 3),
            round(trace[-1], 3),
        )
    table.note(
        "Sliding windows with a stride coprime to N keep improving across "
        "passes; Window 5's stride divides 40 and plateaus (paper §4.2.4)."
    )
    return table, traces


def run_animal_hybrid(seed: int = 0, iterations: int = 20) -> ExperimentTable:
    """§4.2.4 closing experiment: hybrid on the animal-size query
    (paper: τ 0.76 → 0.90 within 20 iterations)."""
    animals = animals_dataset()
    ctx = make_sort_context(
        animals.truth, animals.task_dsl, seed=seed * 23 + 1,
        sort_method="hybrid", hybrid_strategy="window", hybrid_stride=6,
        compare_group_size=5, rate_batch_size=5,
    )
    task = _task(ctx, "sizeSort")
    items = animals.items
    _, summaries = rate_sort(task, items, ctx)
    rate_tau = kendall_tau_from_orders(
        animals.orders["sizeSort"],
        animals.orders["sizeSort"],
        scores_a={ref: i for i, ref in enumerate(animals.orders["sizeSort"])},
        scores_b={ref: summaries[ref].mean for ref in animals.orders["sizeSort"]},
    )
    from repro.core.sort_exec import make_strategy

    sorter = HybridSorter(
        summaries,
        make_strategy("window", window_size=5, stride=6, seed=seed),
        compare=lambda window: run_compare_window(task, window, ctx),
    )
    table = ExperimentTable(
        experiment_id="EXP-S424",
        title="Hybrid on animal size (paper §4.2.4: tau .76 → .90 in 20 iters)",
        headers=["Iteration", "tau"],
    )
    table.add_row(0, round(rate_tau, 3))
    for iteration in range(1, iterations + 1):
        sorter.step()
        if iteration % 5 == 0 or iteration == iterations:
            tau = kendall_tau_from_orders(sorter.order, animals.orders["sizeSort"])
            table.add_row(iteration, round(tau, 3))
    return table
