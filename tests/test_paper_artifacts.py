"""Every paper artifact's rendered seed-0 table, pinned.

``tests/golden/paper_artifacts.json`` maps each experiment-registry id to
the text lines of its runner's table at seed 0: Tables 1–5, Figures 3, 4,
6 and 7, §3.3.3, §3.4, the three §4.2.2 studies and §4.2.4. A change that
moves any reproduced number fails here and names the cell. Re-pin with
``scripts/regen_golden_trace.py --paper`` only when a change moves the
numbers on purpose.
"""

from __future__ import annotations

import json

import pytest

from determinism_pins import PAPER_GOLDEN_PATH, REQUIRES, RUNNABLE
from repro.experiments.registry import render_experiment


@pytest.fixture(scope="module")
def pinned() -> dict[str, list[str]]:
    return json.loads(PAPER_GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_runnable_artifact_is_pinned(pinned):
    assert sorted(pinned) == sorted(entry.experiment_id for entry in RUNNABLE)


@pytest.mark.parametrize("entry", RUNNABLE, ids=lambda entry: entry.experiment_id)
def test_artifact_table_matches_pin(entry, pinned):
    if entry.experiment_id in REQUIRES:
        pytest.importorskip(REQUIRES[entry.experiment_id])
    rendered = render_experiment(entry, seed=0).splitlines()
    assert rendered == pinned[entry.experiment_id]
