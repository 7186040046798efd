"""Join candidate enumeration and batch shaping (§3.1).

Three interfaces with their HIT-count arithmetic (for tables R, S):

* **SimpleJoin** — one pair per HIT: |R||S| HITs.
* **NaiveBatch(b)** — b pairs per HIT: |R||S|/b HITs.
* **SmartBatch(r×s)** — an r×s grid per HIT: |R||S|/(r·s) HITs in the
  paper's accounting, which every Table 5 row follows; the grids
  :func:`smart_grids` posts number :func:`grid_count`.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

from repro.errors import QurkError


class JoinInterface(enum.Enum):
    """The three crowd join UIs."""

    SIMPLE = "simple"
    NAIVE = "naive"
    SMART = "smart"


def all_pairs(
    left: Sequence[str], right: Sequence[str]
) -> list[tuple[str, str]]:
    """The full cross product of candidate pairs, in deterministic order."""
    return [(l, r) for l in left for r in right]


def smart_grids(
    left: Sequence[str],
    right: Sequence[str],
    grid_rows: int,
    grid_cols: int,
) -> list[tuple[list[str], list[str]]]:
    """Partition both sides into blocks; each block pair is one grid HIT.

    Returns (left block, right block) pairs covering the full cross product.
    """
    if grid_rows < 1 or grid_cols < 1:
        raise QurkError("grid dimensions must be positive")
    left_blocks = [
        list(left[start : start + grid_rows]) for start in range(0, len(left), grid_rows)
    ]
    right_blocks = [
        list(right[start : start + grid_cols])
        for start in range(0, len(right), grid_cols)
    ]
    return [(lb, rb) for lb in left_blocks for rb in right_blocks]


def grid_count(left_count: int, right_count: int, grid_rows: int, grid_cols: int) -> int:
    """How many grids :func:`smart_grids` builds: ``ceil(L/r)·ceil(R/c)``."""
    return math.ceil(left_count / grid_rows) * math.ceil(right_count / grid_cols)


def smart_grids_for_candidates(
    candidates: Iterable[tuple[str, str]],
    grid_rows: int,
    grid_cols: int,
) -> list[tuple[list[str], list[str]]]:
    """Grid HITs covering only surviving candidate pairs (post feature
    filtering).

    Groups candidates by left block, then packs each block's right items
    into columns. Grids may cover some non-candidate cells (the interface
    shows whole blocks); answers for those cells are simply extra evidence.
    """
    by_left: dict[str, list[str]] = {}
    left_order: list[str] = []
    for left_item, right_item in candidates:
        if left_item not in by_left:
            by_left[left_item] = []
            left_order.append(left_item)
        by_left[left_item].append(right_item)

    grids: list[tuple[list[str], list[str]]] = []
    for start in range(0, len(left_order), grid_rows):
        block = left_order[start : start + grid_rows]
        rights: list[str] = []
        for left_item in block:
            for right_item in by_left[left_item]:
                if right_item not in rights:
                    rights.append(right_item)
        for col_start in range(0, len(rights), grid_cols):
            grids.append((list(block), rights[col_start : col_start + grid_cols]))
    return grids


def hit_count_estimate(
    left_count: int,
    right_count: int,
    interface: JoinInterface,
    batch_size: int = 1,
    grid_rows: int = 1,
    grid_cols: int = 1,
) -> int:
    """The paper's Table-5 HIT-count arithmetic for each interface.

    Kept as the formula the paper's numbers are checked against; grids the
    executor posts number :func:`grid_count`.
    """
    pairs = left_count * right_count
    if interface is JoinInterface.SIMPLE:
        return pairs
    if interface is JoinInterface.NAIVE:
        return math.ceil(pairs / batch_size)
    if interface is JoinInterface.SMART:
        return math.ceil(pairs / (grid_rows * grid_cols))
    raise QurkError(f"unknown interface {interface}")
