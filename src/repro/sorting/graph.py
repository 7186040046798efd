"""Comparison digraphs: the paper's alternative ordering strategy (§4.1.1).

"One way to resolve such ambiguities is to build a directed graph of items,
where there is an edge from item i to item j if i > j. We can run a
cycle-breaking algorithm on the graph, and perform a topological sort to
compute an approximate order."

Cycle breaking deletes, within each strongly connected component, the edge
with the weakest support (vote margin) until the graph is acyclic. SCCs are
found with Tarjan's algorithm, implemented from scratch (iteratively, to
dodge recursion limits).

Both steps work incrementally over the graph's live adjacency index: after
deleting an SCC's weakest edge, SCCs are recomputed only within that
component's node set, the victim scan walks the component's own adjacency
instead of every edge in the graph, and the topological sort drains a heap.
They produce the same orders and the same removed-edge *set* as a
full-Tarjan sweep with a sorted-list Kahn queue; ``tests/test_sort_scale.py``
keeps that straightforward version as its oracle. The graph is indexed — a
maintained item set keeps ``add_edge`` O(1), and forward adjacency makes
``successors`` allocation-free.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Iterable, Mapping, Sequence

from repro.errors import QurkError
from repro.hits.hit import Vote


class ComparisonGraph:
    """A weighted digraph: edge u → v means "u beats v" with a vote margin."""

    def __init__(self, items: Sequence[str]) -> None:
        self.items = list(dict.fromkeys(items))
        self._item_set: set[str] = set(self.items)
        self._edges: dict[tuple[str, str], float] = {}
        # Forward adjacency: winner → {loser: margin}, maintained alongside
        # _edges. Per-winner dicts preserve edge insertion order, so
        # successors() enumerates losers exactly as the old all-edges scan
        # did.
        self._succ: dict[str, dict[str, float]] = {item: {} for item in self.items}

    @classmethod
    def from_votes(
        cls, items: Sequence[str], corpus: Mapping[str, Sequence[Vote]]
    ) -> "ComparisonGraph":
        """Build from comparison votes: one edge per pair, winner → loser,
        weighted by the winning margin (ties produce no edge)."""
        graph = cls(items)
        for qid, votes in corpus.items():
            parts = qid.rsplit(":cmp:", 1)
            if len(parts) != 2:
                raise QurkError(f"malformed comparison qid {qid!r}")
            a, b = parts[1].split("|", 1)
            counts = Counter(str(vote.value) for vote in votes)
            wins_a, wins_b = counts.get(a, 0), counts.get(b, 0)
            if wins_a > wins_b:
                graph.add_edge(a, b, wins_a - wins_b)
            elif wins_b > wins_a:
                graph.add_edge(b, a, wins_b - wins_a)
        return graph

    def add_edge(self, winner: str, loser: str, weight: float = 1.0) -> None:
        """Record that ``winner`` beats ``loser`` with the given margin."""
        if winner == loser:
            raise QurkError("self-comparison edge")
        for node in (winner, loser):
            if node not in self._item_set:
                self._item_set.add(node)
                self.items.append(node)
                self._succ[node] = {}
        total = self._edges.get((winner, loser), 0.0) + weight
        self._edges[(winner, loser)] = total
        self._succ[winner][loser] = total

    @property
    def edges(self) -> dict[tuple[str, str], float]:
        """Edge map (winner, loser) → margin (a defensive copy)."""
        return dict(self._edges)

    def successors(self, node: str) -> list[str]:
        """Nodes this node beats."""
        return list(self._succ.get(node, ()))

    def remove_edge(self, winner: str, loser: str) -> None:
        """Delete one edge."""
        del self._edges[(winner, loser)]
        del self._succ[winner][loser]


def strongly_connected_components(graph: ComparisonGraph) -> list[list[str]]:
    """Tarjan's SCC algorithm (iterative), over the whole graph.

    A public convenience that rebuilds adjacency from the copying ``edges``
    accessor; :func:`break_cycles` runs the same algorithm through
    :func:`_tarjan_components` on the graph's live index instead.
    """
    adjacency: dict[str, list[str]] = {node: [] for node in graph.items}
    for winner, loser in graph.edges:
        adjacency[winner].append(loser)
    return _tarjan_components(graph.items, adjacency, None)


def _tarjan_components(
    roots: Sequence[str],
    adjacency: Mapping[str, Iterable[str]],
    members: set[str] | None,
) -> list[list[str]]:
    """Iterative Tarjan over ``roots``, optionally restricted to ``members``.

    With ``members`` set, only nodes inside it are visited and edges
    leaving the set are ignored — recomputing the SCCs of one component's
    induced subgraph without touching the rest of the graph. Components
    are emitted in completion order, matching the original implementation.
    """
    index_counter = 0
    indices: dict[str, int] = {}
    lowlinks: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []

    for root in roots:
        if root in indices:
            continue
        work = [(root, iter(adjacency[root]))]
        indices[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if members is not None and succ not in members:
                    continue
                if succ not in indices:
                    indices[succ] = lowlinks[succ] = index_counter
                    index_counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def break_cycles(graph: ComparisonGraph) -> list[tuple[str, str]]:
    """Delete minimum-margin edges inside SCCs until the graph is acyclic.

    Returns the removed edges. Low-margin edges are the least trustworthy
    comparisons, so sacrificing them first preserves the most crowd signal.

    One full Tarjan seeds a worklist of cyclic components; thereafter each
    victim deletion recomputes SCCs only inside the affected component's
    node set, and the victim scan enumerates the component's own adjacency
    rows instead of sweeping every edge in the graph. The victim is the
    component's (margin, edge) minimum. Components evolve independently
    (removing edges only ever *splits* SCCs), so the removed-edge *set* is
    the same as a sweep that takes one weakest edge per cyclic component
    and re-runs Tarjan; the returned order interleaves components
    differently.
    """
    succ = graph._succ
    removed: list[tuple[str, str]] = []
    work = [
        component
        for component in _tarjan_components(graph.items, succ, None)
        if len(component) > 1
    ]
    while work:
        component = work.pop()
        members = set(component)
        internal = [
            ((winner, loser), weight)
            for winner in component
            for loser, weight in succ[winner].items()
            if loser in members
        ]
        victim = min(internal, key=lambda pair: (pair[1], pair[0]))[0]
        graph.remove_edge(*victim)
        removed.append(victim)
        for sub in _tarjan_components(component, succ, members):
            if len(sub) > 1:
                work.append(sub)
    return removed


def topological_order(graph: ComparisonGraph) -> list[str]:
    """Kahn topological sort, least → most.

    An edge winner → loser means the winner is *greater*, so nodes with no
    incoming edges are maxima; we compute the standard order and reverse it.
    The ready queue is a min-heap, so the lexicographically smallest ready
    node is always emitted next. Raises :class:`QurkError` if the graph
    still has cycles.
    """
    succ = graph._succ
    in_degree: dict[str, int] = {node: 0 for node in graph.items}
    for targets in succ.values():
        for loser in targets:
            in_degree[loser] += 1
    ready = [node for node, degree in in_degree.items() if degree == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for target in succ[node]:
            in_degree[target] -= 1
            if in_degree[target] == 0:
                heapq.heappush(ready, target)
    if len(order) != len(graph.items):
        raise QurkError("graph has cycles; run break_cycles first")
    order.reverse()
    return order


def graph_order(
    items: Sequence[str], corpus: Mapping[str, Sequence[Vote]]
) -> list[str]:
    """Convenience: votes → cycle-broken topological order (least → most)."""
    graph = ComparisonGraph.from_votes(items, corpus)
    break_cycles(graph)
    return topological_order(graph)
