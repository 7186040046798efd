"""Tests for the experiment harness and (smoke-level) the runners."""

import pytest

from repro.experiments import EXPERIMENTS, ExperimentTable, describe_experiments
from repro.experiments.registry import VERDICTS
from repro.experiments.harness import (
    binary_confusion,
    combine_both_ways,
    merge_vote_corpora,
    single_vote_accuracy,
)
from repro.hits.hit import Vote
from repro.hits.vote_columns import VoteColumns


def votes(*values):
    return [Vote(f"w{i}", v) for i, v in enumerate(values)]


def test_experiment_table_helpers():
    table = ExperimentTable("X", "title", headers=["name", "value"])
    table.add_row("a", 1)
    table.add_row("b", 2)
    table.note("a note")
    assert table.column("value") == [1, 2]
    assert table.row_by("name", "b") == ["b", 2]
    assert table.cell("a", "value") == 1
    text = table.format()
    assert "[X] title" in text and "a note" in text
    with pytest.raises(KeyError):
        table.row_by("name", "zzz")


def test_merge_vote_corpora():
    merged = merge_vote_corpora(
        [
            VoteColumns.from_corpus({"q": votes(True)}),
            VoteColumns.from_corpus({"q": votes(False), "r": votes(True)}),
        ]
    )
    assert sum(merged.tally()["q"].values()) == 2
    assert sum(merged.tally()["r"].values()) == 1


def test_binary_confusion():
    decisions = {"q1": True, "q2": False, "q3": True}
    truth = {"q1": True, "q2": True, "q3": False, "q4": False}
    tp, fn, tn, fp = binary_confusion(decisions, truth)
    assert (tp, fn, tn, fp) == (1, 1, 1, 1)


def test_single_vote_accuracy():
    corpus = VoteColumns.from_corpus(
        {"q1": votes(True, False), "q2": votes(False, False)}
    )
    truth = {"q1": True, "q2": False}
    assert single_vote_accuracy(corpus, truth, positives=True) == 0.5
    assert single_vote_accuracy(corpus, truth, positives=False) == 1.0


def test_combine_both_ways_agree_on_clean_corpus():
    corpus = VoteColumns.from_corpus({"q": votes(True, True, True, False)})
    mv, qa = combine_both_ways(corpus)
    assert mv["q"] is True and qa["q"] is True


def test_registry_covers_all_paper_artifacts():
    ids = {entry.experiment_id for entry in EXPERIMENTS}
    expected = {
        "EXP-T1", "EXP-F3", "EXP-F4", "EXP-S33", "EXP-T2", "EXP-T3",
        "EXP-T4", "EXP-COST", "EXP-S422a", "EXP-S422b", "EXP-S422c",
        "EXP-F6", "EXP-F7", "EXP-S424", "EXP-T5", "EXP-ABL",
    }
    assert expected <= ids
    assert {entry.verdict for entry in EXPERIMENTS} <= set(VERDICTS)
    text = describe_experiments()
    assert "EXP-T5" in text and "Table 5: end-to-end HIT counts" in text
    assert "EXP-S33" in text and "deviates" in text


def test_run_table1_smoke_small():
    from repro.experiments.join_experiments import run_table1

    table = run_table1(seed=1, n_celebs=6)
    assert table.cell("IDEAL", "TruePos (MV)") == 6
    assert len(table.rows) == 4


def test_run_table2_smoke_small():
    from repro.experiments.feature_experiments import run_table2

    table = run_table2(seed=1, n_celebs=8)
    assert len(table.rows) == 4
    for row in table.rows:
        errors, saved = row[2], row[3]
        assert 0 <= errors <= 8
        assert saved >= 0


def test_run_compare_batching_smoke():
    from repro.experiments.sort_experiments import run_compare_batching

    table = run_compare_batching(seed=1, n=12)
    sizes = table.column("Group size")
    assert sizes == [5, 10, 20]
