"""Every example's stdout, pinned.

Each ``examples/*.py`` runs in a fresh interpreter, with no ``REPRO_*``
toggle set, and its stdout is compared line by line with
``tests/golden/examples.json``. The examples are the first thing a user
runs, so a change that moves a printed row, count, cost or EXPLAIN line
fails here and names the example. Re-pin with
``scripts/regen_golden_trace.py --examples`` only when a change moves an
example's output on purpose.
"""

from __future__ import annotations

import json

import pytest

from determinism_pins import EXAMPLES, EXAMPLES_GOLDEN_PATH, run_example


@pytest.fixture(scope="module")
def pinned() -> dict[str, list[str]]:
    return json.loads(EXAMPLES_GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_example_is_pinned(pinned):
    assert sorted(pinned) == EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_output_matches_pin(name, pinned):
    assert run_example(name) == pinned[name]
