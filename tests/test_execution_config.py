"""ExecutionConfig rejects out-of-range knobs at construction.

Each bad value used to crash deep in the stack (``ZeroDivisionError`` in
batching or the cost model), fail only at execute time or at the first
post, or be accepted silently; now construction raises a ``PlanError``
naming the field. Two NaN cases matter beyond tidiness: a NaN
``backoff_base`` schedules reposts at NaN virtual time (misreporting a
faulted sort's latency), and a NaN ``retry_deadline`` silently means "no
deadline".
"""

import math

import pytest

from repro.core.context import _MINIMUMS, ExecutionConfig
from repro.errors import PlanError
from repro.joins.batching import JoinInterface


@pytest.mark.parametrize(
    "field, value",
    [
        ("grid_rows", 0),
        ("grid_cols", 0),
        ("generative_batch_size", 0),
        ("rate_batch_size", 0),
        ("naive_batch_size", 0),
        ("filter_batch_size", 0),
        ("limit_pick_batch_size", 1),
        ("compare_batch_groups", 0),
        ("compare_group_size", 1),
        ("assignments", 0),
        ("grid_rows", math.nan),
        ("max_budget", -5.0),
        ("max_budget", math.nan),
        ("rate_anchor_count", -1),
        ("hybrid_iterations", -1),
        ("hybrid_stride", 0),
        ("backoff_base", math.nan),
        ("retry_deadline", math.nan),
        ("limit_sort_tournament", None),
        ("adapt", "0"),
        ("resilience", "off"),
        ("combiner", "Nope"),
        ("seed", None),
        ("seed", "x"),
        ("seed", 1.5),
        ("seed", True),
        ("adaptive", "yes"),
        ("adaptive_pilot_fraction", "x"),
        ("backoff_base", "x"),
        ("degrade_quorum", None),
        ("retry_deadline", "5"),
        ("max_budget", True),
    ],
)
def test_bad_value_rejected_at_construction(field, value):
    with pytest.raises(PlanError, match=field):
        ExecutionConfig(join_interface=JoinInterface.NAIVE, **{field: value})
    with pytest.raises(PlanError, match=field):
        ExecutionConfig().with_overrides(**{field: value})


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("field", sorted(_MINIMUMS))
def test_count_fields_take_integers_only(field, value):
    """A float count used to raise a raw TypeError mid-query, after HITs
    were paid for (``grid_rows=2.5``), or run silently rounded
    (``compare_group_size=2.5`` as groups of 3); ``True`` passed as 1."""
    with pytest.raises(PlanError, match=f"{field} must be an integer"):
        ExecutionConfig(**{field: value})
    with pytest.raises(PlanError, match=field):
        ExecutionConfig().with_overrides(**{field: value})


def test_boundary_values_accepted():
    config = ExecutionConfig(
        grid_rows=1,
        grid_cols=1,
        generative_batch_size=1,
        rate_batch_size=1,
        naive_batch_size=1,
        filter_batch_size=1,
        compare_batch_groups=1,
        compare_group_size=2,
        max_budget=0,
        rate_anchor_count=0,
        hybrid_iterations=0,
        hybrid_stride=1,
    )
    assert config.max_budget == 0
    assert ExecutionConfig(max_budget=None).max_budget is None
