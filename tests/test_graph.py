"""Tests for the comparison digraph and cycle breaking."""

import pytest

from repro.errors import QurkError
from repro.hits.hit import Vote, compare_pairs, compare_qid
from repro.hits.vote_columns import VoteColumns
from repro.sorting.graph import (
    ComparisonGraph,
    break_cycles,
    graph_order,
    strongly_connected_components,
    topological_order,
)


def test_add_edge_and_successors():
    graph = ComparisonGraph(["a", "b"])
    graph.add_edge("b", "a", 3)
    assert graph.successors("b") == ["a"]
    assert graph.edges[("b", "a")] == 3


def test_self_edge_rejected():
    with pytest.raises(QurkError):
        ComparisonGraph(["a"]).add_edge("a", "a")


def test_scc_on_dag_is_singletons():
    graph = ComparisonGraph(["a", "b", "c"])
    graph.add_edge("c", "b")
    graph.add_edge("b", "a")
    components = strongly_connected_components(graph)
    assert sorted(len(c) for c in components) == [1, 1, 1]


def test_scc_detects_cycle():
    graph = ComparisonGraph(["a", "b", "c", "d"])
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    graph.add_edge("c", "a")
    graph.add_edge("d", "a")
    components = strongly_connected_components(graph)
    sizes = sorted(len(c) for c in components)
    assert sizes == [1, 3]


def test_break_cycles_removes_weakest_edge():
    graph = ComparisonGraph(["a", "b", "c"])
    graph.add_edge("a", "b", 5)
    graph.add_edge("b", "c", 4)
    graph.add_edge("c", "a", 1)  # weakest link in the cycle
    removed = break_cycles(graph)
    assert removed == [("c", "a")]
    assert topological_order(graph) == ["c", "b", "a"]


def test_topological_order_least_to_most():
    graph = ComparisonGraph(["a", "b", "c"])
    graph.add_edge("c", "b")  # c beats b
    graph.add_edge("b", "a")
    graph.add_edge("c", "a")
    assert topological_order(graph) == ["a", "b", "c"]


def test_topological_order_rejects_cycles():
    graph = ComparisonGraph(["a", "b"])
    graph.add_edge("a", "b")
    graph.add_edge("b", "a")
    with pytest.raises(QurkError):
        topological_order(graph)


def test_from_votes_uses_margins():
    corpus = {
        compare_qid("t", "a", "b"): [Vote("w1", "b"), Vote("w2", "b"), Vote("w3", "a")],
    }
    graph = ComparisonGraph.from_votes(
        ["a", "b"], VoteColumns.from_corpus(corpus), compare_pairs("t", [("a", "b")])
    )
    assert graph.edges[("b", "a")] == 1  # margin 2-1


def test_from_votes_tie_produces_no_edge():
    corpus = {compare_qid("t", "a", "b"): [Vote("w1", "a"), Vote("w2", "b")]}
    graph = ComparisonGraph.from_votes(
        ["a", "b"], VoteColumns.from_corpus(corpus), compare_pairs("t", [("a", "b")])
    )
    assert graph.edges == {}


def test_graph_order_end_to_end():
    items = ["a", "b", "c", "d"]
    corpus = {}
    for i in range(4):
        for j in range(i + 1, 4):
            winner = items[j]
            corpus[compare_qid("t", items[i], items[j])] = [
                Vote(f"w{k}", winner) for k in range(5)
            ]
    # Inject a cycle with a weak contradictory edge.
    corpus[compare_qid("t", "c", "d")] = [
        Vote("w0", "c"), Vote("w1", "c"), Vote("w2", "d")
    ]
    order = graph_order(
        items, VoteColumns.from_corpus(corpus), compare_pairs("t", [items])
    )
    assert order.index("a") == 0 and order.index("b") == 1


def test_big_random_tournament_breaks_all_cycles():
    from repro.util.rng import RandomSource

    rng = RandomSource(7)
    items = [f"i{k}" for k in range(25)]
    graph = ComparisonGraph(items)
    for i in range(25):
        for j in range(i + 1, 25):
            if rng.chance(0.5):
                graph.add_edge(items[i], items[j], rng.randint(1, 5))
            else:
                graph.add_edge(items[j], items[i], rng.randint(1, 5))
    break_cycles(graph)
    order = topological_order(graph)
    assert sorted(order) == sorted(items)
