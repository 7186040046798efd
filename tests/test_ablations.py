"""Tests for the §6 extension ablations."""

from repro.experiments.ablations import run_ban_ablation, run_cache_ablation


def test_ban_ablation_precision():
    result = run_ban_ablation(seed=0)
    # Banning must not be a bloodbath: few accusations, and join recall
    # stays within one match of the pre-ban run.
    assert len(result.identified) <= 8
    assert result.accuracy_after >= result.accuracy_before - 0.1


def test_cache_rerun_is_free_and_identical():
    result = run_cache_ablation(seed=0)
    assert result.first_cost > 0
    assert result.rerun_extra_cost == 0.0
    assert result.rerun_matches_first
