"""Every combination of the four surviving toggles, end to end.

ADAPT, RESILIENCE, STORE and VECTOR are each tested alone elsewhere; this
module runs all 16 on/off settings together. Each setting runs a 10-item
Compare sort on a marketplace that abandons 20% of accepted assignments,
once cold and once warm, each on a fresh marketplace, both against one
store file. It checks that:

* every failure is a :class:`~repro.errors.QurkError`;
* HITs, assignments and dollars agree across the ``QueryResult``, the
  cost ledger and the marketplace counters;
* the warm run returns the cold run's rows, and with STORE on it posts no
  HITs at all (with STORE off it reposts the cold run's work).

The VECTOR=1 settings are skipped when numpy is not installed.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.core.engine import Qurk
from repro.crowd import FaultPlan, SimulatedMarketplace
from repro.datasets import squares_dataset
from repro.errors import QurkError
from repro.util import adapt, resilience, store, vector

QUERY = "SELECT squares.label FROM squares ORDER BY squareSorter(img)"

SETTINGS = list(itertools.product((False, True), repeat=4))


def _setting_id(setting) -> str:
    names = ("adapt", "resilience", "store", "vector")
    return "-".join(f"{name}{int(flag)}" for name, flag in zip(names, setting))


def _run(data, db_path):
    """One execution on a fresh faulted marketplace; returns
    ``(result or None, ledger, marketplace stats)``."""
    market = SimulatedMarketplace(
        data.truth, seed=0, faults=FaultPlan(abandonment_rate=0.2)
    )
    engine = Qurk(platform=market, store=db_path)
    engine.register_table(data.table)
    engine.define(data.task_dsl)
    try:
        result = engine.execute(QUERY)
    except Exception as exc:
        assert isinstance(exc, QurkError), f"non-QurkError escaped: {exc!r}"
        result = None
    finally:
        if engine.store is not None:
            engine.store.close()
    return result, engine.ledger, market.stats


def _assert_conserved(result, ledger, stats) -> None:
    assert stats.hits_posted == ledger.total_hits
    assert stats.assignments_completed == ledger.total_assignments
    assert math.isclose(
        ledger.total_cost,
        ledger.pricing.cost(stats.assignments_completed) + ledger.total_extra_cost,
    )
    if result is not None:
        assert result.hit_count == ledger.total_hits
        assert result.assignment_count == ledger.total_assignments
        assert math.isclose(result.total_cost, ledger.total_cost)


@pytest.mark.parametrize("setting", SETTINGS, ids=[_setting_id(s) for s in SETTINGS])
def test_toggle_combination(setting, tmp_path):
    adapt_on, resilience_on, store_on, vector_on = setting
    if vector_on and not vector.available():
        pytest.skip("numpy not installed; REPRO_VECTOR degrades to scalar")
    data = squares_dataset(n=10, seed=0)
    db_path = tmp_path / "answers.db"
    with (
        adapt.forced(adapt_on),
        resilience.forced(resilience_on),
        store.forced(store_on),
        vector.forced(vector_on),
    ):
        assert vector.enabled() == vector_on
        cold = _run(data, db_path)
        warm = _run(data, db_path)
    for result, ledger, stats in (cold, warm):
        _assert_conserved(result, ledger, stats)
    cold_result, cold_ledger, _ = cold
    warm_result, warm_ledger, warm_stats = warm
    assert db_path.exists() == store_on
    assert cold_result is not None and warm_result is not None
    assert cold_ledger.total_hits > 0
    assert warm_result.rows == cold_result.rows
    if store_on:
        assert warm_stats.hits_posted == 0
        assert warm_result.total_cost == 0.0
    else:
        assert warm_ledger.total_hits == cold_ledger.total_hits
