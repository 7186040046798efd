"""Group generation for comparison sorts (§4.1.1).

The comparison interface shows S items per group and yields C(S, 2)
pairwise comparisons per group, so covering all C(N, 2) pairs needs at
least N(N−1)/(S(S−1)) groups. The greedy generator below may emit
overlapping groups — as the paper notes, "our batch-generation algorithm
may generate overlapping groups, so some pairs may be shown more than 5
times" — but always covers every pair.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import QurkError
from repro.util.rng import RandomSource


def pairs_covered(groups: Sequence[Sequence[str]]) -> set[tuple[str, str]]:
    """The set of (sorted) item pairs appearing together in some group."""
    covered: set[tuple[str, str]] = set()
    for group in groups:
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = sorted((group[i], group[j]))
                covered.add((a, b))
    return covered


def minimum_group_count(n_items: int, group_size: int) -> float:
    """The paper's lower bound N(N−1)/(S(S−1)) on group count."""
    return (n_items * (n_items - 1)) / (group_size * (group_size - 1))


def covering_groups(
    items: Sequence[str], group_size: int, seed: int = 0
) -> list[tuple[str, ...]]:
    """Greedy covering design: groups of ``group_size`` covering all pairs.

    Strategy: repeatedly build a group seeded with the item participating in
    the most uncovered pairs, then grow it with the item covering the most
    new pairs against the current members. Ties break randomly (seeded) so
    repeated trials explore different designs: each pick is one
    ``rng.choice`` over the tied candidates in item order.
    """
    unique = list(dict.fromkeys(items))
    if len(unique) != len(items):
        raise QurkError("items must be distinct")
    if group_size < 2:
        raise QurkError("group size must be at least 2")
    if group_size > len(unique):
        raise QurkError(
            f"group size {group_size} exceeds item count {len(unique)}"
        )
    rng = RandomSource(seed).child("covering-groups")
    return _greedy_cover(unique, group_size, rng)


def _nth_member(members: int, index: int) -> int:
    """The ``index``-th smallest position set in the bitset ``members``."""
    base = 0
    width = members.bit_length()
    while width > 16:  # halve by population until a short tail remains
        half = width >> 1
        low = members & ((1 << half) - 1)
        below = low.bit_count()
        if index < below:
            members, width = low, half
        else:
            members, width, base = members >> half, width - half, base + half
            index -= below
    for _ in range(index):
        members &= members - 1
    return base + (members & -members).bit_length() - 1


class _Ties:
    """The positions in a bitset, lowest first, as a lazy sequence.

    ``random.Random.choice(seq)`` consumes one ``_randbelow(len(seq))`` draw
    and reads ``seq[i]`` once. Exposing the tied candidates through this
    view therefore consumes exactly the draws the candidate list in item
    order would, with the same length and the same i-th element, without
    building the list on every greedy pick.
    """

    __slots__ = ("members", "count")

    def __init__(self, members: int) -> None:
        self.members = members
        self.count = members.bit_count()

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> int:
        return _nth_member(self.members, index)


def _greedy_cover(
    unique: list[str], group_size: int, rng: RandomSource
) -> list[tuple[str, ...]]:
    """The greedy covering of :func:`covering_groups`, on bitsets.

    Item ``i`` is bit ``i``. Each item keeps the bitset of partners it has
    no covered pair with, and items sit in buckets by that count (their
    degree), so the seed pick reads the top non-empty bucket. While a group
    grows, each candidate's gain (members it has an uncovered pair with)
    is a binary counter held as bit planes, one bitset per bit: adding a
    member adds its partner bitset with carries, and the tied best
    candidates are the non-members kept by narrowing to each plane from
    the highest that any of them has set. Every step is a whole-bitset
    integer operation instead of a loop over items.
    """
    n = len(unique)
    everyone = (1 << n) - 1
    uncovered = [everyone ^ (1 << i) for i in range(n)]
    by_degree = [0] * n
    by_degree[n - 1] = everyone
    top = n - 1
    uncovered_ends = n * (n - 1)  # two per uncovered pair
    planes_count = (group_size - 1).bit_length()

    groups: list[tuple[str, ...]] = []
    while uncovered_ends:
        while not by_degree[top]:
            top -= 1
        first = rng.choice(_Ties(by_degree[top]))
        group_ids = [first]
        members = 1 << first
        planes = [uncovered[first]] + [0] * (planes_count - 1)
        while len(group_ids) < group_size:
            ties = everyone ^ members
            for plane in reversed(planes):
                if ties & plane:
                    ties &= plane
            chosen = rng.choice(_Ties(ties))
            group_ids.append(chosen)
            members |= 1 << chosen
            carry = uncovered[chosen]
            for level in range(planes_count):
                planes[level], carry = planes[level] ^ carry, planes[level] & carry
        for member in group_ids:
            fresh = uncovered[member] & members
            if fresh:
                degree = uncovered[member].bit_count()
                covered = fresh.bit_count()
                uncovered[member] ^= fresh
                by_degree[degree] ^= 1 << member
                by_degree[degree - covered] |= 1 << member
                uncovered_ends -= covered
        groups.append(tuple(unique[i] for i in group_ids))
    return groups
