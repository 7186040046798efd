"""Answer-law equivalence of the REPRO_VECTOR kernel, kind by kind.

Both dispatch domains sample one worker answer model
(:mod:`repro.crowd.worker`): the scalar answerers draw it answer by
answer, the numpy kernel in arrays, so their answers must agree in
distribution. ``tests/test_vector_stats.py`` pins that on filter groups;
this module pins every other vectorized kind, comparing one statistic per
kind between the domains over a panel of seeds:

* join pairs and 5x5 grids: the fraction of "match" answers;
* ratings: the mean distance of the ticked Likert point from the item's
  true point;
* comparisons at one and two groups per HIT: the fraction of pairs ranked
  right;
* categorical generative fields: the fraction of answers equal to the
  truth.

The join laws carry the vector domain's one known deviation: the kernel
applies the worker's yes-bias to join rows as well as to filters, where
the scalar model biases filters only, so on this panel the kernel answers
"match" 7.1% more often on single pairs and 15.4% more often on 5x5 grids
(-1.7% and +1.2% with the kernel's bias zeroed). The pinned vector golden
and perfbench's ``t5_vector`` digests hold it, so the join cases are
strict xfails: they start failing the day the domains are aligned, and
the marks come off then. Everything here skips without numpy (the
``[vector]`` extra).
"""

from __future__ import annotations

import pytest

from repro.crowd import FeatureTruth, GroundTruth, SimulatedMarketplace
from repro.hits.hit import (
    CompareGroup,
    ComparePayload,
    GenerativeFieldSpec,
    GenerativePayload,
    GenerativeQuestion,
    JoinGridPayload,
    JoinPair,
    JoinPairsPayload,
    RatePayload,
    RateQuestion,
)
from repro.hits.manager import TaskManager
from repro.util.toggles import VECTOR

if not VECTOR.available():
    pytest.skip(
        "numpy not installed; REPRO_VECTOR kernel inactive", allow_module_level=True
    )

SEEDS = range(100, 148)  # the 48 seeds of tests/test_vector_stats.py
ASSIGNMENTS = 5
TOLERANCE = 0.05
"""Relative gap allowed between the domains' panel statistics. The
aligned kinds read within 2% here, and within 3% on four other 48-seed
ranges (200, 300, 400, 500), where the join deviation read 7% to 24%."""

N = 40
LEFT = [f"img://left/{i}" for i in range(N)]
RIGHT = [f"img://right/{i}" for i in range(N)]
ITEMS = [f"img://item/{i}" for i in range(N)]
HAIR = ("black", "brown", "blond", "white")
SCALE = 7


def _truth() -> GroundTruth:
    truth = GroundTruth()
    truth.add_join_task("same", {(LEFT[i], RIGHT[i]) for i in range(N)})
    truth.add_rank_task(
        "size",
        {item: (i * 7) % N for i, item in enumerate(ITEMS)},
        comparison_ambiguity=1.5,
        rating_ambiguity=2.0,
    )
    truth.add_feature_task(
        "hair",
        "value",
        FeatureTruth(
            values={item: HAIR[i % 4] for i, item in enumerate(ITEMS)},
            options=HAIR,
            confusion={
                "black": {"black": 0.85, "brown": 0.15},
                "brown": {"brown": 0.75, "black": 0.15, "blond": 0.10},
                "blond": {"blond": 0.60, "white": 0.30, "brown": 0.10},
            },
        ),
    )
    return truth


TRUTH = _truth()


def _pairs():
    """Ten left items, each against its match and nine non-matches."""
    return [
        [JoinPairsPayload("same", (JoinPair(LEFT[i], RIGHT[(i + k) % N]),))]
        for i in range(10)
        for k in range(10)
    ]


def _grids():
    """5x5 grids whose left and right blocks share one matching pair."""
    return [
        [JoinGridPayload("same", tuple(LEFT[i : i + 5]), tuple(RIGHT[i + 4 : i + 9]))]
        for i in range(0, N - 8, 2)
    ]


def _rates():
    return [
        [RatePayload("size", (RateQuestion(item),), scale_points=SCALE)]
        for item in ITEMS
    ]


def _compares():
    return [
        [ComparePayload("size", (CompareGroup(tuple(ITEMS[i : i + 5])),))]
        for i in range(0, N, 5)
    ]


def _categoricals():
    spec = GenerativeFieldSpec("value", "Radio", HAIR)
    return [
        [GenerativePayload("hair", (GenerativeQuestion(item),), (spec,))]
        for item in ITEMS
    ]


def _answers(seed: int, vector_on: bool, units, batch_size: int) -> list[tuple]:
    """Every (qid, answer) of one group posted on a fresh marketplace."""
    market = SimulatedMarketplace(TRUTH, seed=seed)
    manager = TaskManager(market)
    hits = manager.build_hits(
        units, batch_size=batch_size, assignments=ASSIGNMENTS, label="law"
    )
    with VECTOR.forced(vector_on):
        completed = market.post_hit_group(hits, group_id="g")
    return [pair for assignment in completed for pair in assignment.answers.items()]


def _match_fraction(answers) -> float:
    return sum(bool(value) for _, value in answers) / len(answers)


def _rate_error(answers) -> float:
    latent = TRUTH.latent_value
    errors = [
        abs(point - (1 + (SCALE - 1) * latent("size", qid.split(":rate:")[1])))
        for qid, point in answers
    ]
    return sum(errors) / len(errors)


def _compare_accuracy(answers) -> float:
    latent = TRUTH.latent_value
    right = 0
    for qid, winner in answers:
        first, second = qid.split(":cmp:")[1].split("|")
        best = first if latent("size", first) >= latent("size", second) else second
        right += winner == best
    return right / len(answers)


def _categorical_accuracy(answers) -> float:
    values = TRUTH.feature_truth("hair", "value").values
    items = (qid.split(":gen:")[1].rsplit(":", 1)[0] for qid, _ in answers)
    right = sum(value == values[item] for (_, value), item in zip(answers, items))
    return right / len(answers)


YES_BIAS_DEVIATION = pytest.mark.xfail(
    strict=True,
    reason=(
        "known deviation: the vector kernel applies the worker's yes-bias to "
        "join answers, the scalar model to filters only"
    ),
)

LAWS = [
    pytest.param(
        _pairs, 1, _match_fraction, id="join-pairs", marks=YES_BIAS_DEVIATION
    ),
    pytest.param(
        _grids, 1, _match_fraction, id="join-grid-5x5", marks=YES_BIAS_DEVIATION
    ),
    pytest.param(_rates, 5, _rate_error, id="rate"),
    pytest.param(_compares, 1, _compare_accuracy, id="compare-batch-1"),
    pytest.param(_compares, 2, _compare_accuracy, id="compare-batch-2"),
    pytest.param(_categoricals, 5, _categorical_accuracy, id="categorical"),
]


@pytest.mark.parametrize("units, batch_size, statistic", LAWS)
def test_answer_law_matches_scalar(units, batch_size, statistic):
    scalar, vector = [], []
    for seed in SEEDS:
        scalar += _answers(seed, False, units(), batch_size)
        vector += _answers(seed, True, units(), batch_size)
    assert statistic(vector) == pytest.approx(statistic(scalar), rel=TOLERANCE)
