"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.metrics.fleiss import fleiss_kappa, modified_kappa
from repro.metrics.kendall import kendall_tau_b, kendall_tau_from_orders
from repro.sorting.graph import ComparisonGraph, break_cycles, topological_order
from repro.sorting.groups import covering_groups, pairs_covered
from repro.sorting.head_to_head import head_to_head_order
from repro.util.stats import percentile
from repro.util.text import lowercase_single_space

# ---------------------------------------------------------------------------
# Kendall's tau
# ---------------------------------------------------------------------------

paired_vectors = st.integers(min_value=3, max_value=30).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 10), min_size=n, max_size=n),
        st.lists(st.integers(0, 10), min_size=n, max_size=n),
    )
)


@given(paired_vectors)
@settings(max_examples=60, deadline=None)
def test_tau_matches_scipy(pair):
    scipy_stats = pytest.importorskip("scipy.stats")
    x, y = pair
    if len(set(x)) < 2 or len(set(y)) < 2:
        return  # degenerate, rejected by our implementation
    ours = kendall_tau_b([float(v) for v in x], [float(v) for v in y])
    theirs = scipy_stats.kendalltau(x, y, variant="b").statistic
    assert ours == pytest.approx(theirs, abs=1e-9)


@given(st.permutations(list(range(8))))
@settings(max_examples=40, deadline=None)
def test_tau_symmetry_and_bounds(perm):
    base = list(range(8))
    tau = kendall_tau_from_orders([str(i) for i in base], [str(i) for i in perm])
    rev = kendall_tau_from_orders([str(i) for i in perm], [str(i) for i in base])
    assert tau == pytest.approx(rev)
    assert -1.0 <= tau <= 1.0


@given(st.permutations(list(range(6))))
@settings(max_examples=30, deadline=None)
def test_tau_reversal_negates(perm):
    items = [str(i) for i in perm]
    tau = kendall_tau_from_orders(items, items[::-1])
    identity = kendall_tau_from_orders(items, items)
    assert identity == pytest.approx(1.0)
    assert tau == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# Fleiss kappa
# ---------------------------------------------------------------------------

count_rows = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "a": st.integers(0, 6),
            "b": st.integers(0, 6),
            "c": st.integers(0, 6),
        },
    ).map(lambda row: {k: v for k, v in row.items() if v > 0}),
    min_size=2,
    max_size=25,
).filter(lambda rows: sum(1 for r in rows if sum(r.values()) >= 2) >= 2)


@given(count_rows)
@settings(max_examples=60, deadline=None)
def test_kappa_bounds(rows):
    value = fleiss_kappa(rows)
    assert -1.0 <= value <= 1.0 + 1e-9
    modified = modified_kappa(rows)
    assert -1.0 <= modified <= 1.0 + 1e-9


@given(st.integers(2, 20), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_kappa_unanimity_is_one(n_items, n_raters):
    rows = [{"x" if i % 2 else "y": n_raters} for i in range(n_items)]
    assert fleiss_kappa(rows) == pytest.approx(1.0)
    assert modified_kappa(rows) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Covering groups
# ---------------------------------------------------------------------------


@given(st.integers(5, 25), st.integers(2, 6), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_covering_groups_cover_all_pairs(n, group_size, seed):
    group_size = min(group_size, n)
    if group_size < 2:
        return
    items = [f"i{k}" for k in range(n)]
    groups = covering_groups(items, group_size, seed=seed)
    expected = {
        tuple(sorted((items[i], items[j])))
        for i in range(n)
        for j in range(i + 1, n)
    }
    assert pairs_covered(groups) >= expected
    assert all(len(group) == group_size for group in groups)


# ---------------------------------------------------------------------------
# Head-to-head and comparison graphs
# ---------------------------------------------------------------------------


@given(st.permutations(list(range(9))))
@settings(max_examples=40, deadline=None)
def test_head_to_head_recovers_any_acyclic_order(perm):
    items = [f"i{k}" for k in perm]
    position = {item: rank for rank, item in enumerate(items)}
    winners = {}
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i], items[j]
            winners[(a, b)] = a if position[a] > position[b] else b
    assert head_to_head_order(sorted(items), winners) == items


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 5)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=40, deadline=None)
def test_cycle_breaking_always_yields_total_order(edges):
    graph = ComparisonGraph([f"n{k}" for k in range(8)])
    for a, b, w in edges:
        if a != b:
            graph.add_edge(f"n{a}", f"n{b}", w)
    break_cycles(graph)
    order = topological_order(graph)
    assert sorted(order) == sorted(graph.items)
    # Every surviving edge is respected: winner appears later (greater).
    ranks = {node: i for i, node in enumerate(order)}
    for winner, loser in graph.edges:
        assert ranks[winner] > ranks[loser]


# ---------------------------------------------------------------------------
# payload_cache_key (hits/cache.py) — the persistent store's join key
# ---------------------------------------------------------------------------

item_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "S", "Z")),
    min_size=1,
    max_size=12,
)

filter_corpus = st.tuples(
    item_names,
    st.lists(item_names, min_size=1, max_size=6, unique=True).map(tuple),
)
"""(task_name, item list) — the primitive data a filter unit is built from."""


def _build_filter_payloads(corpus) -> tuple:
    """Fresh payload objects from primitive data — what a restarted process
    does when it re-plans the same query from scratch."""
    from repro.hits.hit import FilterPayload, FilterQuestion

    task_name, items = corpus
    return (
        FilterPayload(task_name, tuple(FilterQuestion(item) for item in items)),
    )


@given(filter_corpus, st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_cache_key_stable_across_rebuilds(corpus, assignments):
    """Same primitive data ⇒ same key, even from freshly constructed
    payload objects (simulating another process): the key depends only on
    payload *content*, never on object identity."""
    from repro.hits.cache import payload_cache_key

    first = payload_cache_key(_build_filter_payloads(corpus), assignments)
    second = payload_cache_key(_build_filter_payloads(corpus), assignments)
    assert first == second


@given(
    st.lists(item_names, min_size=2, max_size=5, unique=True),
    st.permutations(range(5)),
    st.integers(1, 9),
)
@settings(max_examples=60, deadline=None)
def test_cache_key_ignores_payload_tuple_order(items, perm, assignments):
    """Payload order within a HIT is presentation, not content: the key
    sorts payload reprs, so any permutation of the same payloads collides
    (which is the point — identical questions share one cache row)."""
    from repro.hits.cache import payload_cache_key
    from repro.hits.hit import FilterPayload, FilterQuestion

    payloads = tuple(
        FilterPayload(f"t{k}", (FilterQuestion(item),))
        for k, item in enumerate(items)
    )
    shuffled = tuple(payloads[i % len(payloads)] for i in perm[: len(payloads)])
    if sorted(repr(p) for p in shuffled) != sorted(repr(p) for p in payloads):
        return  # permutation dropped/duplicated payloads; not a reordering
    assert payload_cache_key(payloads, assignments) == payload_cache_key(
        shuffled, assignments
    )


@given(filter_corpus, st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_cache_key_sensitive_to_replication(corpus, a, b):
    """Different replication counts must never share a row: 5 stored
    assignments cannot satisfy a 10-assignment request."""
    from repro.hits.cache import payload_cache_key

    payloads = _build_filter_payloads(corpus)
    keys_equal = payload_cache_key(payloads, a) == payload_cache_key(payloads, b)
    assert keys_equal == (a == b)


@given(st.lists(filter_corpus, min_size=2, max_size=12, unique=True))
@settings(max_examples=80, deadline=None)
def test_cache_key_no_collisions_across_distinct_corpora(corpora):
    """Distinct payload corpora (different task names or item sets) map to
    distinct keys — a persistent store row never answers for a different
    question."""
    from repro.hits.cache import payload_cache_key

    keys = {
        payload_cache_key(_build_filter_payloads(corpus), 5)
        for corpus in corpora
    }
    assert len(keys) == len(corpora)


# ---------------------------------------------------------------------------
# Misc utilities
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.floats(0, 100))
@settings(max_examples=60, deadline=None)
def test_percentile_within_range(values, q):
    result = percentile(values, q)
    assert min(values) <= result <= max(values)


@given(st.text(max_size=80))
@settings(max_examples=60, deadline=None)
def test_lowercase_single_space_idempotent(text):
    once = lowercase_single_space(text)
    assert lowercase_single_space(once) == once
    assert "  " not in once


# ---------------------------------------------------------------------------
# Majority vote + Dawid-Skene consistency
# ---------------------------------------------------------------------------


@given(st.lists(st.booleans(), min_size=1, max_size=15))
@settings(max_examples=60, deadline=None)
def test_majority_agrees_with_counts(values):
    from repro.combine.majority import MajorityVote
    from repro.hits.hit import Vote

    votes = [Vote(f"w{i}", v) for i, v in enumerate(values)]
    result = MajorityVote().combine_one(votes)
    yes = sum(values)
    no = len(values) - yes
    assert result is (yes > no)


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_unanimous_corpus_survives_dawid_skene(seed):
    """With unanimous votes, EM must return exactly those labels."""
    from repro.combine.dawid_skene import dawid_skene
    from repro.hits.hit import Vote
    from repro.hits.vote_columns import VoteColumns
    from repro.util.rng import RandomSource

    rng = RandomSource(seed)
    corpus = {}
    truth = {}
    for i in range(12):
        label = rng.chance(0.5)
        truth[f"q{i}"] = label
        corpus[f"q{i}"] = [Vote(f"w{k}", label) for k in range(4)]
    if len(set(truth.values())) < 2:
        return
    result = dawid_skene(VoteColumns.from_corpus(corpus))
    assert result.hard_labels() == truth


# ---------------------------------------------------------------------------
# UNKNOWN-aware selectivity algebra (joins/selectivity.py)
# ---------------------------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(unit, unit, unit)
@settings(max_examples=120, deadline=None)
def test_unknown_aware_sigma_within_unit_interval(u_left, u_right, concrete):
    from repro.joins.selectivity import unknown_aware_selectivity

    sigma = unknown_aware_selectivity(u_left, u_right, concrete)
    assert 0.0 <= sigma <= 1.0
    # The wildcard mass alone is a lower bound: UNKNOWN pairs always pass.
    wildcard = u_left + u_right - u_left * u_right
    assert sigma >= wildcard - 1e-12


@given(unit, unit, unit, unit)
@settings(max_examples=120, deadline=None)
def test_unknown_aware_sigma_monotone_in_unknown_share(u_low, u_high, u_other, concrete):
    """More UNKNOWN mass can only make the feature pass more pairs."""
    from repro.joins.selectivity import unknown_aware_selectivity

    lo, hi = min(u_low, u_high), max(u_low, u_high)
    assert unknown_aware_selectivity(lo, u_other, concrete) <= (
        unknown_aware_selectivity(hi, u_other, concrete) + 1e-12
    )
    # Symmetric in the two sides.
    assert unknown_aware_selectivity(lo, u_other, concrete) == pytest.approx(
        unknown_aware_selectivity(u_other, lo, concrete)
    )


@given(
    st.lists(st.sampled_from(["a", "b", "c", None]), min_size=1, max_size=30),
    st.lists(st.sampled_from(["a", "b", "c", None]), min_size=1, max_size=30),
)
@settings(max_examples=120, deadline=None)
def test_estimate_selectivity_equals_empirical_pass_rate(left_raw, right_raw):
    """σ from sampled values is exactly the cross-product pass fraction of
    pair_passes over those samples (None stands in for UNKNOWN)."""
    from repro.joins.feature_filter import pair_passes
    from repro.joins.selectivity import estimate_selectivity
    from repro.relational.expressions import UNKNOWN

    left = [UNKNOWN if v is None else v for v in left_raw]
    right = [UNKNOWN if v is None else v for v in right_raw]
    left_map = {f"l{i}": v for i, v in enumerate(left)}
    right_map = {f"r{i}": v for i, v in enumerate(right)}
    passed = sum(
        pair_passes(l, r, [(left_map, right_map)])
        for l in left_map
        for r in right_map
    )
    empirical = passed / (len(left) * len(right))
    assert estimate_selectivity(left, right) == pytest.approx(empirical)
