"""The scale-out sort engine against straightforward oracles.

Incremental cycle breaking, the heap-based topological sort, and the
indexed confidence-window scorer must be *output-identical* to the
textbook versions defined in this module: same orders, same removed-edge
sets, same hybrid repair trajectories, bit for bit. These tests enforce
that on random vote corpora with planted cycles (via
``repro.experiments.sort_workload``) and ad-hoc random tournaments, and pin
the LIMIT tournament path's row-identity and HIT savings on the
steep-latent workload.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import pytest

from repro.core.context import ExecutionConfig
from repro.core.engine import Qurk
from repro.core.planner import build_plan
from repro.core.plan import SortNode
from repro.crowd import SimulatedMarketplace
from repro.errors import QurkError
from repro.experiments.sort_workload import comparison_corpus, limit_sort_setup
from repro.language.parser import parse_statements
from repro.relational.catalog import Catalog
from repro.sorting.graph import (
    ComparisonGraph,
    break_cycles,
    graph_order,
    strongly_connected_components,
    topological_order,
)
from repro.sorting.head_to_head import WinCountIndex, head_to_head_order
from repro.sorting.hybrid import ConfidenceStrategy, HybridSorter
from repro.sorting.rating import RatingSummary
from repro.sorting.topk import tournament_top_k
from repro.util.rng import RandomSource


# ---------------------------------------------------------------------------
# Oracles: the textbook versions the engine's implementations must match
# ---------------------------------------------------------------------------


def oracle_break_cycles(graph: ComparisonGraph) -> list[tuple[str, str]]:
    """Full-Tarjan sweeps: delete each cyclic component's weakest edge,
    then recompute every SCC of the whole graph, until none is cyclic."""
    removed: list[tuple[str, str]] = []
    while True:
        cyclic = [c for c in strongly_connected_components(graph) if len(c) > 1]
        if not cyclic:
            return removed
        # Components are disjoint, so one edge snapshot serves the sweep.
        component_of = {node: k for k, c in enumerate(cyclic) for node in c}
        internal: list[list[tuple[tuple[str, str], float]]] = [[] for _ in cyclic]
        for edge, weight in graph.edges.items():
            k = component_of.get(edge[0])
            if k is not None and component_of.get(edge[1]) == k:
                internal[k].append((edge, weight))
        for edges in internal:
            victim = min(edges, key=lambda pair: (pair[1], pair[0]))[0]
            graph.remove_edge(*victim)
            removed.append(victim)


def oracle_topological_order(graph: ComparisonGraph) -> list[str]:
    """Kahn with a ready list re-sorted after every step, least → most."""
    in_degree = {node: 0 for node in graph.items}
    adjacency: dict[str, list[str]] = {node: [] for node in graph.items}
    for winner, loser in graph.edges:
        in_degree[loser] += 1
        adjacency[winner].append(loser)
    ready = sorted(node for node, degree in in_degree.items() if degree == 0)
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in sorted(adjacency[node]):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
        ready.sort()
    assert len(order) == len(graph.items), "oracle needs an acyclic graph"
    order.reverse()
    return order


def oracle_graph_order(items, corpus, pairs) -> list[str]:
    graph = ComparisonGraph.from_votes(items, corpus, pairs)
    oracle_break_cycles(graph)
    return oracle_topological_order(graph)


class OracleConfidenceStrategy(ConfidenceStrategy):
    """Scores every window with :meth:`ConfidenceStrategy.window_overlap`
    directly instead of the sliding pair index."""

    def next_window(
        self,
        order: Sequence[str],
        summaries: Mapping[str, RatingSummary],
        iteration: int,
    ) -> list[int]:
        size = min(self.window_size, len(order))
        if self._ranked_starts is None:
            scores = [
                (self.window_overlap(order[start : start + size], summaries), start)
                for start in range(0, len(order) - size + 1)
            ]
            scores.sort(key=lambda pair: (-pair[0], pair[1]))
            self._ranked_starts = [start for _, start in scores]
        start = self._ranked_starts[iteration % len(self._ranked_starts)]
        return list(range(start, start + size))


# ---------------------------------------------------------------------------
# Graph layer: orders and removed-edge sets identical to the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [12, 40, 80, 200])
@pytest.mark.parametrize("seed", [0, 3])
def test_graph_order_identical_under_toggle(n, seed):
    items, corpus, pairs = comparison_corpus(n, seed=seed)
    assert graph_order(items, corpus, pairs) == oracle_graph_order(items, corpus, pairs)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_break_cycles_removed_set_identical(seed):
    for n in (40, 200):
        items, corpus, pairs = comparison_corpus(n, seed=seed)
        oracle_graph = ComparisonGraph.from_votes(items, corpus, pairs)
        graph = ComparisonGraph.from_votes(items, corpus, pairs)
        expected = oracle_break_cycles(oracle_graph)
        removed = break_cycles(graph)
        assert expected, "workload must actually plant cycles"
        assert set(removed) == set(expected), n
        assert graph.edges == oracle_graph.edges, n


def test_graph_order_and_removed_set_identical_at_1000():
    """The largest ``bench_sort_scale`` corpus, where the incremental
    worklist interleaves hundreds of components."""
    items, corpus, pairs = comparison_corpus(1000, seed=0)
    oracle_graph = ComparisonGraph.from_votes(items, corpus, pairs)
    graph = ComparisonGraph.from_votes(items, corpus, pairs)
    expected = oracle_break_cycles(oracle_graph)
    assert len(expected) > 100, "workload must plant many cycles"
    assert set(break_cycles(graph)) == set(expected)
    assert graph.edges == oracle_graph.edges
    oracle_order = oracle_topological_order(oracle_graph)
    assert topological_order(graph) == oracle_order
    assert graph_order(items, corpus, pairs) == oracle_order


@pytest.mark.parametrize("seed", [2, 9])
def test_random_tournament_identical_under_toggle(seed):
    """Dense random tournaments (one giant SCC) — not just windowed ones."""
    rng = RandomSource(seed)
    items = [f"i{k:02d}" for k in range(30)]
    edges = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if rng.chance(0.5):
                edges.append((items[i], items[j], rng.randint(1, 9)))
            else:
                edges.append((items[j], items[i], rng.randint(1, 9)))
    graphs = []
    for _ in range(2):
        graph = ComparisonGraph(items)
        for winner, loser, weight in edges:
            graph.add_edge(winner, loser, weight)
        graphs.append(graph)
    oracle_graph, graph = graphs
    expected_removed = set(oracle_break_cycles(oracle_graph))
    assert set(break_cycles(graph)) == expected_removed
    assert topological_order(graph) == oracle_topological_order(oracle_graph)


def test_topological_order_identical_on_sparse_dag():
    rng = RandomSource(11)
    items = [f"n{k:03d}" for k in range(60)]
    graph = ComparisonGraph(items)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if rng.chance(0.15):
                graph.add_edge(items[j], items[i])
    assert topological_order(graph) == oracle_topological_order(graph)


def test_indexed_graph_structure_matches_reference_semantics():
    graph = ComparisonGraph(["a", "b"])
    graph.add_edge("b", "a", 2)
    graph.add_edge("c", "a", 1)  # new node appended, insertion order kept
    graph.add_edge("b", "a", 3)  # accumulates
    assert graph.items == ["a", "b", "c"]
    assert graph.edges == {("b", "a"): 5, ("c", "a"): 1}
    assert graph.successors("b") == ["a"]
    assert graph.successors("missing") == []
    edges_copy = graph.edges
    edges_copy[("x", "y")] = 1.0  # public accessor stays a defensive copy
    assert ("x", "y") not in graph.edges
    graph.remove_edge("b", "a")
    assert graph.successors("b") == []


# ---------------------------------------------------------------------------
# Hybrid layer: confidence scoring and repair trajectories bit-identical
# ---------------------------------------------------------------------------


def _random_summaries(n: int, seed: int) -> dict[str, RatingSummary]:
    rng = RandomSource(seed).child("summaries")
    summaries = {}
    for k in range(n):
        item = f"item{k:02d}"
        # Coarse grid means/stds make exact ties common — the regime where
        # a float-drifting scorer would re-rank windows.
        summaries[item] = RatingSummary(
            item=item,
            mean=rng.randint(1, 7) / 2.0,
            std=rng.randint(0, 4) / 4.0,
            count=5,
        )
    return summaries


@pytest.mark.parametrize("n", [8, 21, 40])
@pytest.mark.parametrize("seed", [0, 4])
def test_confidence_window_scores_bit_identical(n, seed):
    summaries = _random_summaries(n, seed)
    order = sorted(summaries)
    size = min(5, n)
    reference = []
    for start in range(0, n - size + 1):
        window_items = [order[start + k] for k in range(size)]
        reference.append(
            ConfidenceStrategy.window_overlap(window_items, summaries)
        )
    from repro.sorting.hybrid import _window_scores_indexed

    indexed = _window_scores_indexed(order, summaries, size)
    assert [score for score, _ in indexed] == reference  # == : bit-exact


@pytest.mark.parametrize("seed", [0, 7])
def test_hybrid_confidence_trajectories_identical(seed):
    summaries = _random_summaries(24, seed)
    latents = {item: i for i, item in enumerate(sorted(summaries))}

    def oracle_compare(window):
        winners = {}
        for i in range(len(window)):
            for j in range(i + 1, len(window)):
                a, b = window[i], window[j]
                winners[(a, b)] = a if latents[a] > latents[b] else b
        return winners

    trajectories = []
    for strategy in (OracleConfidenceStrategy, ConfidenceStrategy):
        sorter = HybridSorter(summaries, strategy(window_size=5), oracle_compare)
        trajectories.append(sorter.run(15))
    assert trajectories[0] == trajectories[1]


def test_win_count_index_matches_head_to_head_order():
    items = ["a", "b", "c", "d"]
    winners = {("a", "b"): "a", ("c", "b"): "c", ("a", "c"): "a", ("d", "a"): "a"}
    index = WinCountIndex(items)
    for (a, b), winner in winners.items():
        index.record(a, b, winner)
    assert index.order() == head_to_head_order(items, winners)
    assert index.wins("a") == 3 and index.wins("unknown") == 0
    with pytest.raises(QurkError):
        index.record("a", "b", "z")


# ---------------------------------------------------------------------------
# LIMIT tournament path
# ---------------------------------------------------------------------------


def test_tournament_top_k_with_scripted_picks():
    items = [f"v{k}" for k in range(11)]
    calls = []

    def pick(batch):
        calls.append(list(batch))
        return max(batch, key=lambda item: int(item[1:]))

    winners, hits = tournament_top_k(items, pick, k=3, batch_size=4)
    assert winners == ["v10", "v9", "v8"]
    assert hits == len(calls)
    # k successive tournaments over a shrinking field: ≈ k·N/(b−1) picks,
    # nowhere near C(11, 2) = 55 pairwise comparisons.
    assert hits <= 12


def test_tournament_top_k_k_exceeding_items():
    winners, _ = tournament_top_k(["b", "a"], max, k=5, batch_size=2)
    assert winners == ["b", "a"]
    with pytest.raises(QurkError):
        tournament_top_k(["a", "b"], max, k=0)


def _limit_engine(n, seed=0, **config):
    data = limit_sort_setup(n, seed=seed)
    market = SimulatedMarketplace(data.truth, seed=seed)
    engine = Qurk(
        platform=market, config=ExecutionConfig(sort_method="compare", **config)
    )
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    return data, engine


@pytest.mark.parametrize("direction,labels", [
    ("DESC", ["square-197", "square-194", "square-191"]),
    ("", ["square-20", "square-23", "square-26"]),
])
def test_limit_tournament_rows_identical_and_cheaper(direction, labels):
    query = (
        "SELECT squares.label FROM squares "
        f"ORDER BY squareSorter(img) {direction} LIMIT 3"
    )
    outcomes = {}
    for flag in (False, True):
        _, engine = _limit_engine(60, limit_sort_tournament=flag)
        outcomes[flag] = engine.execute(query)
    assert outcomes[False].column("squares.label") == labels
    assert (
        outcomes[True].column("squares.label")
        == outcomes[False].column("squares.label")
    )
    assert outcomes[True].hit_count < outcomes[False].hit_count


def test_limit_tournament_config_override_beats_toggle():
    """A per-query config override switches the tournament off (and back on)
    whatever the engine's default config says."""
    query = (
        "SELECT squares.label FROM squares "
        "ORDER BY squareSorter(img) DESC LIMIT 3"
    )
    _, engine = _limit_engine(40)
    full = engine.execute(
        query, config=engine.config.with_overrides(limit_sort_tournament=False)
    )
    _, engine = _limit_engine(40, limit_sort_tournament=False)
    tournament = engine.execute(
        query, config=engine.config.with_overrides(limit_sort_tournament=True)
    )
    assert tournament.hit_count < full.hit_count
    assert tournament.column("squares.label") == full.column("squares.label")


def test_limit_tournament_records_signals():
    query = (
        "SELECT squares.label FROM squares "
        "ORDER BY squareSorter(img) DESC LIMIT 3"
    )
    _, engine = _limit_engine(40)
    result = engine.execute(query)
    signals = {}
    for stats in result.node_stats.values():
        signals.update(stats.signals)
    assert signals.get("limit_tournament_k") == 3.0
    assert signals.get("limit_tournament_hits", 0) > 0


def test_limit_hint_not_used_for_rate_sorts():
    """Rate sorts are already O(N) HITs; the hint must leave them alone."""
    query = (
        "SELECT squares.label FROM squares "
        "ORDER BY squareSorter(img) DESC LIMIT 3"
    )
    hits = {}
    for flag in (False, True):
        data = limit_sort_setup(40)
        market = SimulatedMarketplace(data.truth, seed=0)
        engine = Qurk(
            platform=market,
            config=ExecutionConfig(sort_method="rate", limit_sort_tournament=flag),
        )
        engine.register_table(data.table)
        engine.define(data.task_dsl)
        result = engine.execute(query)
        hits[flag] = result.hit_count
        assert len(result) == 3
    assert hits[False] == hits[True]


# ---------------------------------------------------------------------------
# Planner: when the limit hint is (not) attached
# ---------------------------------------------------------------------------


def _plan_catalog():
    catalog = Catalog()
    from repro.datasets.squares import squares_dataset
    from repro.tasks import task_from_definition

    data = squares_dataset(n=4)
    catalog.register_table(data.table)
    for statement in parse_statements(data.task_dsl):
        catalog.register_task(task_from_definition(statement))
    catalog.register_task(
        task_from_definition(
            parse_statements(
                'TASK describe(field) TYPE Generative:\n'
                '    Prompt: "<p>describe %s</p>", tuple[field]\n'
                '    Response: Text("Description")\n'
                '    Combiner: MajorityVote\n'
            )[0]
        )
    )
    return catalog


def _sort_node(plan):
    return next(node for node in plan.walk() if isinstance(node, SortNode))


def test_planner_sets_limit_hint_for_plain_projection():
    catalog = _plan_catalog()
    from repro.core.engine import parse_single_select

    query = parse_single_select(
        "SELECT squares.label FROM squares "
        "ORDER BY squareSorter(img) DESC LIMIT 7",
        catalog,
    )
    assert _sort_node(build_plan(query, catalog)).limit_hint == 7


def test_planner_skips_limit_hint_without_limit_or_with_crowd_projection():
    catalog = _plan_catalog()
    from repro.core.engine import parse_single_select

    no_limit = parse_single_select(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)", catalog
    )
    assert _sort_node(build_plan(no_limit, catalog)).limit_hint is None

    generative = parse_single_select(
        "SELECT describe(img).note AS note FROM squares "
        "ORDER BY squareSorter(img) LIMIT 2",
        catalog,
    )
    assert _sort_node(build_plan(generative, catalog)).limit_hint is None
