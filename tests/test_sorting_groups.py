"""Tests for comparison-group covering designs."""

import pytest

from repro.errors import QurkError
from repro.sorting.groups import covering_groups, minimum_group_count, pairs_covered


def all_pairs(items):
    return {
        tuple(sorted((items[i], items[j])))
        for i in range(len(items))
        for j in range(i + 1, len(items))
    }


def test_covers_every_pair():
    items = [f"i{k}" for k in range(12)]
    groups = covering_groups(items, group_size=4, seed=0)
    assert pairs_covered(groups) >= all_pairs(items)


def test_group_sizes_fixed():
    items = [f"i{k}" for k in range(10)]
    groups = covering_groups(items, 5, seed=1)
    assert all(len(group) == 5 for group in groups)
    assert all(len(set(group)) == 5 for group in groups)


def test_group_count_near_lower_bound():
    items = [f"i{k}" for k in range(40)]
    groups = covering_groups(items, 5, seed=2)
    bound = minimum_group_count(40, 5)  # = 78
    assert bound <= len(groups) <= bound * 1.8


def test_paper_bound_value():
    # §4.2.4: 40 squares at S=5 → 78 comparison HITs.
    assert minimum_group_count(40, 5) == pytest.approx(78.0)


def test_deterministic_per_seed():
    items = [f"i{k}" for k in range(15)]
    assert covering_groups(items, 4, seed=3) == covering_groups(items, 4, seed=3)


def test_group_size_two_is_all_pairs():
    items = ["a", "b", "c", "d"]
    groups = covering_groups(items, 2, seed=0)
    assert pairs_covered(groups) == all_pairs(items)
    assert len(groups) == 6


def test_validation():
    with pytest.raises(QurkError):
        covering_groups(["a", "a"], 2)
    with pytest.raises(QurkError):
        covering_groups(["a", "b"], 1)
    with pytest.raises(QurkError):
        covering_groups(["a", "b"], 3)


def test_whole_set_single_group():
    items = ["a", "b", "c"]
    groups = covering_groups(items, 3, seed=0)
    assert len(groups) == 1


def textbook_greedy_cover(items, group_size, seed):
    """The greedy covering written plainly: recount each candidate's gain
    against the group on every pick. The incremental implementation must
    draw and pick identically."""
    from repro.util.rng import RandomSource

    rng = RandomSource(seed).child("covering-groups")
    uncovered = all_pairs(items)
    degree = {item: len(items) - 1 for item in items}
    groups = []
    while uncovered:
        max_degree = max(degree.values())
        group = [rng.choice([item for item, d in degree.items() if d == max_degree])]
        while len(group) < group_size:
            gains = {
                item: sum(tuple(sorted((item, m))) in uncovered for m in group)
                for item in items
                if item not in group
            }
            best = max(gains.values())
            group.append(rng.choice([item for item, g in gains.items() if g == best]))
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pair = tuple(sorted((group[i], group[j])))
                if pair in uncovered:
                    uncovered.discard(pair)
                    degree[pair[0]] -= 1
                    degree[pair[1]] -= 1
        groups.append(tuple(group))
    return groups


@pytest.mark.parametrize(
    "n, group_size, seed", [(6, 3, 0), (12, 4, 1), (20, 5, 2), (31, 5, 7)]
)
def test_covering_groups_match_textbook_greedy(n, group_size, seed):
    items = [f"i{k:02d}" for k in range(n)]
    assert covering_groups(items, group_size, seed=seed) == textbook_greedy_cover(
        items, group_size, seed
    )
