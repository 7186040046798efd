"""Worker profiles, and the one answer model every sampler reads.

Three archetypes reproduce the behaviours the paper measures:

* **reliable** — low error, but still imperfect; errors grow mildly with
  batch size (attention dilution).
* **sloppy** — noticeably error-prone, errors grow quickly with batching
  ("larger, batched schemes are more attractive to workers that quickly and
  inaccurately complete the tasks", §3.3.2).
* **spammer** — ignores content entirely; answers at random or with a fixed
  pattern to finish fast. QualityAdjust exists to identify these.

Every numeric parameter is drawn per-worker from the archetype's range so
the pool is heterogeneous, which matters for the Zipfian work distribution
and the §3.3.3 accuracy-vs-volume regression.

The answer model
----------------
Every formula that turns a worker's parameters and a payload into answer
probabilities lives in the second half of this module, written once in
arithmetic that runs on Python floats and on numpy arrays alike. Two
samplers read it: :mod:`repro.crowd.behavior` draws it answer by answer on
the scalar ``random.Random`` stream, and :mod:`repro.crowd.vector` draws it
in arrays on its PCG64 stream. A formula's ``worker`` is a
:class:`WorkerProfile` or any object carrying its field names as arrays,
and its ``ops`` is :data:`SCALAR` (the default) on floats or the ``numpy``
module on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from repro.errors import MarketplaceError
from repro.hits.hit import (
    FilterPayload,
    JoinGridPayload,
    JoinPairsPayload,
    filter_qid,
    join_qid,
)
from repro.util.rng import RandomSource

SPAM_STYLES = ("random", "always_yes", "always_no", "first_option")
"""How a spammer answers. ``random`` clicks at random; ``always_yes``
ticks "yes" on every yes/no question and ``always_no`` and
``first_option`` tick "no"; ``first_option`` also takes the first option
of every categorical field, where the others pick one at random."""

SPAM_CODES = {style: code for code, style in enumerate(SPAM_STYLES)}
"""Spam style → its code (:attr:`WorkerProfile.spam_code`)."""


@dataclass(frozen=True)
class WorkerProfile:
    """All behavioural parameters of one worker."""

    worker_id: str
    archetype: str
    filter_error: float
    join_miss: float
    join_false_alarm: float
    compare_noise: float
    rate_noise: float
    rate_bias: float
    feature_carelessness: float
    yes_bias: float
    batch_error_growth: float
    effort_threshold: float
    speed: float
    is_spammer: bool = False
    spam_style: str = "random"

    def __post_init__(self) -> None:
        if self.spam_style not in SPAM_STYLES:
            raise MarketplaceError(
                f"spam_style must be one of {SPAM_STYLES}, got {self.spam_style!r}"
            )

    @property
    def spam_code(self) -> int:
        """The spam style's index in :data:`SPAM_STYLES`."""
        return SPAM_CODES[self.spam_style]

    def batch_factor(self, units: int) -> float:
        """Error multiplier for a HIT carrying ``units`` atomic questions."""
        return batch_factor(self.batch_error_growth, units)

    def error_rate(self, base: float, units: int) -> float:
        """A base error probability scaled by batching, capped below 0.95."""
        return scaled_error(base, self.batch_factor(units))

    def acceptance_probability(self, effort_seconds: float) -> float:
        """Probability of accepting a HIT requiring this much honest effort.

        A logistic curve around the worker's personal effort-per-penny
        threshold: HITs far beyond it (compare groups of 20, §4.2.2) are
        virtually always declined. Past about 1,420 s over the threshold
        ``exp`` overflows a double; the probability is then 0.0.
        """
        exponent = (effort_seconds - self.effort_threshold) / 2.0
        try:
            return 1.0 / (1.0 + math.exp(exponent))
        except OverflowError:
            return 0.0


WORKER_COLUMNS = (
    *(field.name for field in fields(WorkerProfile) if field.type != "str"),
    "spam_code",
)
"""The numeric worker attributes, which the vector kernel keeps as one
array each over the pool."""


def make_reliable(worker_id: str, rng: RandomSource) -> WorkerProfile:
    """A careful worker."""
    return WorkerProfile(
        worker_id=worker_id,
        archetype="reliable",
        filter_error=rng.uniform(0.02, 0.06),
        join_miss=rng.uniform(0.08, 0.18),
        join_false_alarm=rng.uniform(0.001, 0.008),
        compare_noise=rng.uniform(0.02, 0.06),
        rate_noise=rng.uniform(0.08, 0.16),
        rate_bias=rng.gauss(0.0, 0.35),
        feature_carelessness=rng.uniform(0.0, 0.02),
        yes_bias=rng.gauss(0.0, 0.02),
        batch_error_growth=rng.uniform(0.01, 0.03),
        effort_threshold=rng.gauss(31.0, 5.0),
        speed=rng.uniform(0.8, 1.3),
    )


def make_sloppy(worker_id: str, rng: RandomSource) -> WorkerProfile:
    """A fast, careless (but not adversarial) worker."""
    return WorkerProfile(
        worker_id=worker_id,
        archetype="sloppy",
        filter_error=rng.uniform(0.10, 0.20),
        join_miss=rng.uniform(0.25, 0.45),
        join_false_alarm=rng.uniform(0.01, 0.05),
        compare_noise=rng.uniform(0.10, 0.22),
        rate_noise=rng.uniform(0.20, 0.40),
        rate_bias=rng.gauss(0.0, 0.9),
        feature_carelessness=rng.uniform(0.03, 0.08),
        yes_bias=rng.gauss(0.0, 0.08),
        batch_error_growth=rng.uniform(0.05, 0.10),
        effort_threshold=rng.gauss(38.0, 6.0),
        speed=rng.uniform(0.5, 0.8),
    )


def make_spammer(worker_id: str, rng: RandomSource) -> WorkerProfile:
    """An adversarial worker minimising effort for payment.

    Spammers have the highest batch tolerance — big batches maximise pay per
    click — which is exactly why batched schemes attract them (§3.3.2).
    """
    style = rng.choice(["random", "always_no", "random", "always_yes"])
    return WorkerProfile(
        worker_id=worker_id,
        archetype="spammer",
        filter_error=0.5,
        join_miss=0.5,
        join_false_alarm=0.5,
        compare_noise=10.0,
        rate_noise=10.0,
        rate_bias=0.0,
        feature_carelessness=1.0,
        yes_bias=0.0,
        batch_error_growth=0.0,
        effort_threshold=rng.gauss(37.0, 4.0),
        speed=rng.uniform(0.15, 0.35),
        is_spammer=True,
        spam_style=style,
    )


# ---------------------------------------------------------------------------
# The answer model
# ---------------------------------------------------------------------------


class _ScalarOps:
    """numpy's ``minimum``, ``where``, ``rint`` and ``clip`` on Python
    numbers. ``minimum`` and ``clip`` pick what the builtin ``min`` and
    ``max`` would, without their argument parsing; ``where`` evaluates both
    branches, as numpy's does."""

    rint = staticmethod(round)
    minimum = staticmethod(lambda a, b: b if b < a else a)
    where = staticmethod(lambda condition, a, b: a if condition else b)

    @staticmethod
    def clip(value, low, high):
        value = value if value < high else high
        return value if value > low else low


SCALAR = _ScalarOps
"""The ``ops`` of the scalar sampler."""

GRID_MISS_PER_CELL = 0.025
"""Extra per-pair miss probability per grid cell beyond a 2×2 grid.

Honest-worker misses grow only mildly with grid area (capped by
GRID_MISS_CAP); the paper's steep accuracy drop on big batched schemes
comes mostly from the spammers they attract (§3.3.2), which the pool's
batch-affinity weighting models."""

GRID_MISS_CAP = 0.20
"""Ceiling on the extra grid miss probability."""

UNKNOWN_RATE = 0.01
"""Base probability a careful worker answers UNKNOWN on a feature with an
UNKNOWN option."""


def batch_factor(growth, units, ops=SCALAR):
    """Error multiplier for a HIT carrying ``units`` atomic questions."""
    return ops.where(units <= 1, 1.0, ops.minimum(3.0, 1.0 + growth * (units - 1)))


def scaled_error(base, factor, ops=SCALAR):
    """A base error probability scaled by the batch factor, capped below 0.95."""
    return ops.minimum(0.95, base * factor)


def spam_yes_rate(worker, random_rate, ops=SCALAR):
    """Probability a spammer ticks "yes" on a yes/no question: 1 or 0 for
    the fixed styles, ``random_rate`` for ``random``."""
    code = worker.spam_code
    yes = code == SPAM_CODES["always_yes"]
    no = (code == SPAM_CODES["always_no"]) | (code == SPAM_CODES["first_option"])
    return ops.where(yes, 1.0, ops.where(no, 0.0, random_rate))


def spam_takes_first(worker):
    """Whether a spammer takes a categorical field's first option (the
    other styles pick one at random)."""
    return worker.spam_code == SPAM_CODES["first_option"]


def compare_sigma(worker, ambiguity):
    """σ of a worker's Gaussian perception of an item, comparing."""
    return worker.compare_noise * ambiguity


def fatigue_sigma(factor, ops=SCALAR):
    """σ of an honest worker's extra per-item noise on a batched
    comparison HIT: 0 unless the batch factor exceeds 1."""
    return ops.where(factor > 1.0, 0.01 * (factor - 1.0), 0.0)


def rate_sigma(worker, ambiguity):
    """σ of a worker's Gaussian perception of an item, rating."""
    return worker.rate_noise * ambiguity


def likert_point(perceived, scale, bias, ops=SCALAR):
    """The point a worker perceiving ``perceived`` ∈ [0, 1] ticks on a
    ``scale``-point Likert scale (a spammer ticks a uniform one)."""
    return ops.clip(ops.rint(1 + (scale - 1) * perceived + bias), 1, scale)


def careless_rate(worker, factor, ops=SCALAR):
    """Probability a worker ticks a uniformly random option on a
    categorical field instead of drawing from its confusion kernel."""
    return scaled_error(worker.feature_carelessness, factor, ops)


class BinaryLaw(NamedTuple):
    """How workers answer one yes/no payload kind.

    ``rows(payload, truth)`` lists the payload's (qid, true answer) rows in
    answer order, and ``terms(payload)`` its extra grid miss and a
    ``random`` spammer's click rate. ``flip(worker, factor, extra, correct,
    ops)`` is the probability of answering against a row whose true answer
    is ``correct``: a miss or a false alarm. Where ``biased``, the worker's
    yes-bias then turns some "no" answers to "yes" (negative: the reverse).
    """

    rows: Callable
    terms: Callable
    flip: Callable
    biased: bool


def _filter_rows(payload, truth):
    task, answer = payload.task_name, truth.filter_answer
    return [(filter_qid(task, q.item), answer(task, q.item)) for q in payload.questions]


def _pair_rows(payload, truth):
    # A loop: on the hottest scalar answer, a single pair, a comprehension's
    # closure costs more than the pair's own lookups.
    task, match = payload.task_name, truth.join_match
    rows = []
    for pair in payload.pairs:
        left, right = pair.left, pair.right
        rows.append((join_qid(task, left, right), match(task, left, right)))
    return rows


def _grid_rows(payload, truth):
    task, match = payload.task_name, truth.join_match
    return [
        (join_qid(task, left, right), match(task, left, right))
        for left in payload.left_items
        for right in payload.right_items
    ]


def _plain_terms(payload):
    return 0.0, 0.5


def _grid_terms(payload):
    # Honest misses grow mildly with grid area; a random spammer clicks a
    # couple of cells.
    cells = payload.cell_count
    extra = min(GRID_MISS_CAP, GRID_MISS_PER_CELL * max(0, cells - 4))
    return extra, min(0.5, 2.0 / cells)


def _filter_flip(worker, factor, extra, correct, ops=SCALAR):
    return scaled_error(worker.filter_error, factor, ops)


def _pair_flip(worker, factor, extra, correct, ops=SCALAR):
    base = ops.where(correct, worker.join_miss, worker.join_false_alarm)
    return scaled_error(base, factor, ops)


def _grid_flip(worker, factor, extra, correct, ops=SCALAR):
    # Not batch-scaled: a grid's misses are cells never clicked.
    miss = ops.minimum(0.9, worker.join_miss + extra)
    return ops.where(correct, miss, worker.join_false_alarm)


BINARY_LAWS = {
    FilterPayload.kind: BinaryLaw(_filter_rows, _plain_terms, _filter_flip, True),
    JoinPairsPayload.kind: BinaryLaw(_pair_rows, _plain_terms, _pair_flip, False),
    JoinGridPayload.kind: BinaryLaw(_grid_rows, _grid_terms, _grid_flip, False),
}
"""``payload.kind`` → :class:`BinaryLaw` for the three yes/no kinds."""
