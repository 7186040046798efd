"""Tests for join pair enumeration and interface batch shaping."""

import pytest

from repro.errors import QurkError
from repro.hits.manager import TaskManager
from repro.joins.batching import (
    JoinInterface,
    all_pairs,
    hit_count_estimate,
    smart_grids,
    smart_grids_for_candidates,
)


def test_all_pairs_cross_product():
    pairs = all_pairs(["a", "b"], ["x", "y", "z"])
    assert len(pairs) == 6
    assert ("a", "x") in pairs and ("b", "z") in pairs


def test_naive_batch_validation():
    """The Naive join batches its pairs through ``merge_units``."""
    with pytest.raises(QurkError):
        TaskManager.merge_units([], 0)


def test_smart_grids_cover_cross_product():
    grids = smart_grids([f"l{i}" for i in range(7)], [f"r{i}" for i in range(5)], 3, 3)
    covered = {
        (l, r) for left, right in grids for l in left for r in right
    }
    assert len(covered) == 35
    assert len(grids) == 3 * 2  # ceil(7/3) × ceil(5/3)


def test_smart_grid_validation():
    with pytest.raises(QurkError):
        smart_grids(["a"], ["b"], 0, 1)


def test_smart_grids_for_candidates_covers_all():
    candidates = [("l0", "r0"), ("l0", "r1"), ("l1", "r0"), ("l2", "r5")]
    grids = smart_grids_for_candidates(candidates, 2, 2)
    covered = {(l, r) for left, right in grids for l in left for r in right}
    assert set(candidates) <= covered


def test_hit_count_estimates_match_paper_table5():
    """Table 5 arithmetic: 211 scenes × 5 actors."""
    assert hit_count_estimate(211, 5, JoinInterface.SIMPLE) == 1055
    assert hit_count_estimate(211, 5, JoinInterface.NAIVE, batch_size=5) == 211
    assert hit_count_estimate(211, 5, JoinInterface.SMART, grid_rows=5, grid_cols=5) == 43
    # Filtered: 117 scenes pass numInScene.
    assert hit_count_estimate(117, 5, JoinInterface.SIMPLE) == 585
    assert hit_count_estimate(117, 5, JoinInterface.NAIVE, batch_size=5) == 117
    assert hit_count_estimate(117, 5, JoinInterface.SMART, grid_rows=3, grid_cols=3) == 65
    assert hit_count_estimate(117, 5, JoinInterface.SMART, grid_rows=5, grid_cols=5) == 24


def test_hit_count_celebrity_join():
    """§3.3.2: 30×30 join = 900 HITs simple, 90 naive-10, 100 smart-3×3."""
    assert hit_count_estimate(30, 30, JoinInterface.SIMPLE) == 900
    assert hit_count_estimate(30, 30, JoinInterface.NAIVE, batch_size=10) == 90
    assert hit_count_estimate(30, 30, JoinInterface.SMART, grid_rows=3, grid_cols=3) == 100
