"""The worker answer model: one definition, run on floats and on arrays.

:mod:`repro.crowd.worker` writes every answer formula once, for both
samplers: the scalar answerers pass Python floats and the default
``ops``, the vector kernel passes numpy arrays and ``numpy``. These tests
pin what makes that one definition: every formula gives the same value
element by element either way (the scalar shim picks exactly what
numpy's ``minimum``, ``where``, ``rint`` and ``clip`` pick), the
ceilings that no pinned trace reaches hold, and a worker's spam style is
one of the four the model defines. The array half skips without numpy
(the ``[vector]`` extra).
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest

from repro.crowd.worker import (
    BINARY_LAWS,
    SPAM_STYLES,
    WorkerProfile,
    batch_factor,
    careless_rate,
    compare_sigma,
    fatigue_sigma,
    likert_point,
    make_reliable,
    make_spammer,
    rate_sigma,
    scaled_error,
    spam_takes_first,
    spam_yes_rate,
)
from repro.errors import MarketplaceError
from repro.hits.hit import JoinGridPayload, JoinPair, JoinPairsPayload
from repro.util.rng import RandomSource


@pytest.mark.parametrize("style", SPAM_STYLES)
def test_each_spam_style_is_accepted(style):
    spammer = dataclasses.replace(make_spammer("w", RandomSource(1)), spam_style=style)
    assert spammer.spam_style == style


@pytest.mark.parametrize("style", ["bogus", "", "Random", None])
def test_unknown_spam_style_rejected(style):
    """``spam_style="bogus"`` used to be accepted and read three ways: the
    scalar model answered filters at random and grid cells "no", and the
    vector kernel treated it as ``random``."""
    with pytest.raises(MarketplaceError, match="spam_style"):
        dataclasses.replace(make_spammer("w", RandomSource(1)), spam_style=style)
    fields = dataclasses.asdict(make_reliable("w", RandomSource(1)))
    with pytest.raises(MarketplaceError, match="spam_style"):
        WorkerProfile(**{**fields, "spam_style": style})


def test_law_ceilings():
    """The ceilings no pinned trace reaches: a grid pair's miss stops at
    0.9, a batch-scaled error at 0.95 and the batch factor at 3.0; a 5x5
    grid adds the full 0.2 extra miss and a random spammer clicks 2 cells
    of 25, where a single pair is clicked half the time."""
    grid = JoinGridPayload("same", tuple("abcde"), tuple("vwxyz"))
    pair = JoinPairsPayload("same", (JoinPair("a", "v"),))
    worker = SimpleNamespace(join_miss=0.8, join_false_alarm=0.6)
    extra, spam_rate = BINARY_LAWS[grid.kind].terms(grid)
    assert (extra, spam_rate) == (0.2, 0.08)
    assert BINARY_LAWS[pair.kind].terms(pair) == (0.0, 0.5)
    assert BINARY_LAWS[grid.kind].flip(worker, 3.0, extra, True) == 0.9
    assert BINARY_LAWS[grid.kind].flip(worker, 3.0, extra, False) == 0.6
    assert BINARY_LAWS[pair.kind].flip(worker, 3.0, 0.0, True) == 0.95
    assert batch_factor(0.5, 26) == 3.0
    assert batch_factor(0.5, 1) == batch_factor(0.5, 0) == 1.0


def _scalar_workers(n: int) -> list[SimpleNamespace]:
    """Worker parameters across and just beyond the archetypes' ranges,
    with the 0/1 edges the scalar sampler short-circuits on."""
    rng = random.Random(5)
    edges = [0.0, 1.0, 0.95, 0.5]
    return [
        SimpleNamespace(
            join_miss=rng.choice([rng.uniform(0, 1), *edges]),
            join_false_alarm=rng.choice([rng.uniform(0, 0.6), *edges]),
            filter_error=rng.uniform(0, 0.6),
            feature_carelessness=rng.choice([rng.uniform(0, 1), *edges]),
            compare_noise=rng.uniform(0, 10),
            rate_noise=rng.uniform(0, 10),
            rate_bias=rng.gauss(0, 1),
            batch_error_growth=rng.choice([rng.uniform(0, 0.3), 0.0, 2.0]),
            spam_code=rng.randrange(len(SPAM_STYLES)),
        )
        for _ in range(n)
    ]


def test_every_formula_matches_on_floats_and_arrays():
    np = pytest.importorskip("numpy")
    n = 600
    rng = random.Random(11)
    workers = _scalar_workers(n)
    arrays = SimpleNamespace(
        **{
            name: np.array([getattr(worker, name) for worker in workers])
            for name in vars(workers[0])
        }
    )
    units = [rng.choice([0, 1, 2, 5, 25, 200]) for _ in range(n)]
    extra = [rng.choice([0.0, 0.025, 0.2]) for _ in range(n)]
    correct = [rng.random() < 0.5 for _ in range(n)]
    perceived = [rng.uniform(-0.4, 1.4) for _ in range(n)]
    scale = [rng.choice([2, 5, 7, 10]) for _ in range(n)]
    ambiguity = [rng.uniform(0.5, 3) for _ in range(n)]
    random_rate = [rng.choice([0.5, 0.08, 2.0 / 3]) for _ in range(n)]
    factor = [batch_factor(w.batch_error_growth, u) for w, u in zip(workers, units)]
    factor_arr = batch_factor(arrays.batch_error_growth, np.array(units), np)
    assert factor_arr.tolist() == factor

    def same(scalar_values, array_values):
        assert np.asarray(array_values).tolist() == list(scalar_values)

    same(
        (scaled_error(w.join_miss, f) for w, f in zip(workers, factor)),
        scaled_error(arrays.join_miss, factor_arr, np),
    )
    same(
        (careless_rate(w, f) for w, f in zip(workers, factor)),
        careless_rate(arrays, factor_arr, np),
    )
    same((fatigue_sigma(f) for f in factor), fatigue_sigma(factor_arr, np))
    same(
        (compare_sigma(w, a) for w, a in zip(workers, ambiguity)),
        compare_sigma(arrays, np.array(ambiguity)),
    )
    same(
        (rate_sigma(w, a) for w, a in zip(workers, ambiguity)),
        rate_sigma(arrays, np.array(ambiguity)),
    )
    same(
        (
            likert_point(p, s, w.rate_bias)
            for p, s, w in zip(perceived, scale, workers)
        ),
        likert_point(np.array(perceived), np.array(scale), arrays.rate_bias, np).astype(
            np.int64
        ),
    )
    same(
        (spam_yes_rate(w, r) for w, r in zip(workers, random_rate)),
        spam_yes_rate(arrays, np.array(random_rate), np),
    )
    same((spam_takes_first(w) for w in workers), spam_takes_first(arrays))
    for kind, law in BINARY_LAWS.items():
        same(
            (
                law.flip(w, f, e, c)
                for w, f, e, c in zip(workers, factor, extra, correct)
            ),
            law.flip(arrays, factor_arr, np.array(extra), np.array(correct), np),
        )
