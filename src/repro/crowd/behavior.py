"""Answer generation: how a given worker answers a given HIT.

This is where worker error models meet ground truth. Each payload type has a
generator; a HIT's answers are the union over its payloads. The HIT-level
batch size (total atomic units) scales error rates — batching degrades
honest answers mildly and attracts spammers strongly, which together produce
the paper's Figure 3 shape.

Noise models:

* **Comparisons** (Thurstonian): the worker perceives each item's latent
  value plus Gaussian noise with σ = worker.compare_noise × task ambiguity,
  then ranks the group by perceived value. Close items under ambiguous
  criteria invert often; crisp tasks (squares) almost never.
* **Ratings**: Likert point = round(1 + 6 × perceived) + worker bias,
  clamped to the scale. Perception noise uses the task's rating ambiguity,
  which exceeds comparison ambiguity (absolute judgements are harder than
  relative ones — why Rate trails Compare in §4.2).
* **Joins**: miss/false-alarm probabilities, inflated for grid interfaces
  with many cells (SmartBatch misses come from failing to click a pair).
* **Features**: careful workers draw from the dataset's confusion kernel
  (blond vs white hair, skin tone discomfort in isolation); careless draws
  are uniform over the options.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.crowd.truth import GroundTruth
from repro.crowd.worker import WorkerProfile
from repro.errors import MarketplaceError
from repro.hits.hit import (
    HIT,
    ComparePayload,
    FilterPayload,
    GenerativePayload,
    JoinGridPayload,
    JoinPairsPayload,
    Payload,
    PickBestPayload,
    RatePayload,
    filter_qid,
    generative_qid,
    join_qid,
    rate_qid,
)
from repro.tasks.registry import DispatchTable
from repro.util.rng import RandomSource

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


def answer_hit(
    worker: WorkerProfile, hit: HIT, truth: GroundTruth, rng: RandomSource
) -> dict[str, object]:
    """All answers one worker gives to one HIT."""
    units = hit.unit_count
    combined = hit.combined_generative
    answers: dict[str, object] = {}
    for payload in hit.payloads:
        answers.update(
            answer_payload(worker, payload, truth, rng, units=units, combined=combined)
        )
    return answers


def spam_answer_hit(
    worker: WorkerProfile, hit: HIT, truth: GroundTruth, rng: RandomSource
) -> dict[str, object]:
    """The answers ``worker`` would give if they spammed this HIT.

    Used by the fault-injection overlay (:mod:`repro.crowd.faults`) to
    replace an honest assignment's answers with garbage: the worker is
    answered through a spammer twin (``is_spammer=True, spam_style="random"``)
    against a caller-supplied stream, so the honest dispatch draws are
    untouched, and the replacement is identical whether the group is
    posted blocking or outstanding.
    """
    twin = replace(worker, is_spammer=True, spam_style="random")
    return answer_hit(twin, hit, truth, rng)


PAYLOAD_ANSWERERS = DispatchTable("payload behaviour model")
"""``payload.kind`` → answer generator.

Handlers share the uniform signature
``(worker, payload, truth, rng, units, combined)`` and return the
qid → answer dict one worker produces for one payload. Out-of-tree payload
kinds register via :func:`register_payload_answerer` without touching this
module.
"""


def register_payload_answerer(kind: str, handler=None, *, replace: bool = False):
    """Register the behaviour model for a payload kind."""
    return PAYLOAD_ANSWERERS.register(kind, handler, replace=replace)


def answer_payload(
    worker: WorkerProfile,
    payload: Payload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int = 1,
    combined: bool = False,
) -> dict[str, object]:
    """Answers for a single payload (see :func:`answer_hit`)."""
    handler = PAYLOAD_ANSWERERS.lookup(payload.kind)
    if handler is None:
        raise MarketplaceError(f"no behaviour model for {type(payload).__name__}")
    return handler(worker, payload, truth, rng, units, combined)


# ---------------------------------------------------------------------------
# Binary questions
# ---------------------------------------------------------------------------


def _spam_binary(worker: WorkerProfile, rng: RandomSource) -> bool:
    if worker.spam_style == "always_yes":
        return True
    if worker.spam_style in ("always_no", "first_option"):
        return False
    return rng.chance(0.5)


def _chance_draws(probability: float) -> bool:
    """Whether ``RandomSource.chance(probability)`` consumes a draw.

    The answer loops below inline ``chance`` with raw draws; probabilities
    at or beyond 0/1 short-circuit without touching the stream, and that
    edge must be preserved exactly.
    """
    return 0.0 < probability < 1.0


def _answer_filter(
    worker: WorkerProfile,
    payload: FilterPayload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
) -> dict[str, object]:
    """Yes/no answers with a symmetric, batch-scaled error rate plus the
    worker's yes-bias. Per-question constants are hoisted and ``chance`` is
    inlined against the raw stream (same draws as the wrapper)."""
    task_name = payload.task_name
    if worker.is_spammer:
        return {
            filter_qid(task_name, question.item): _spam_binary(worker, rng)
            for question in payload.questions
        }
    answers: dict[str, object] = {}
    filter_answer = truth.filter_answer
    raw_random = rng.raw.random
    error = worker.error_rate(worker.filter_error, units)
    error_draws = _chance_draws(error)
    error_always = error >= 1.0
    yes_bias = worker.yes_bias
    bias_draws = _chance_draws(abs(yes_bias))
    bias_always = abs(yes_bias) >= 1.0
    for question in payload.questions:
        correct = filter_answer(task_name, question.item)
        flip = raw_random() < error if error_draws else error_always
        answer = (not correct) if flip else correct
        # Yes-bias: a biased worker occasionally flips a "no" to "yes"
        # (or vice versa) beyond their symmetric error rate.
        if yes_bias > 0 and not answer:
            if raw_random() < yes_bias if bias_draws else bias_always:
                answer = True
        elif yes_bias < 0 and answer:
            if raw_random() < -yes_bias if bias_draws else bias_always:
                answer = False
        answers[f"{task_name}:filter:{question.item}"] = answer
    return answers


def _answer_join_pairs(
    worker: WorkerProfile,
    payload: JoinPairsPayload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
) -> dict[str, object]:
    """Per-pair match answers with batch-scaled miss and false-alarm rates
    (hoisted, ``chance`` inlined as in :func:`_answer_filter`)."""
    task_name = payload.task_name
    if worker.is_spammer:
        return {
            join_qid(task_name, pair.left, pair.right): _spam_binary(worker, rng)
            for pair in payload.pairs
        }
    answers: dict[str, object] = {}
    join_match = truth.join_match
    raw_random = rng.raw.random
    miss = worker.error_rate(worker.join_miss, units)
    miss_draws = _chance_draws(miss)
    miss_always = miss >= 1.0
    false_alarm = worker.error_rate(worker.join_false_alarm, units)
    fa_draws = _chance_draws(false_alarm)
    fa_always = false_alarm >= 1.0
    for pair in payload.pairs:
        left = pair.left
        right = pair.right
        if join_match(task_name, left, right):
            missed = raw_random() < miss if miss_draws else miss_always
            answers[f"{task_name}:join:{left}|{right}"] = not missed
        else:
            alarmed = raw_random() < false_alarm if fa_draws else fa_always
            answers[f"{task_name}:join:{left}|{right}"] = alarmed
    return answers


def _answer_join_grid(
    worker: WorkerProfile,
    payload: JoinGridPayload,
    truth: GroundTruth,
    rng: RandomSource,
) -> dict[str, object]:
    """SmartBatch grids: misses come from pairs never clicked.

    Spammers usually tick the "no matches" box (all-no) or click a couple of
    random cells; honest workers scan the grid with a per-pair miss rate
    that grows with grid area.
    """
    answers: dict[str, object] = {}
    cells = payload.cell_count
    if worker.is_spammer:
        if worker.spam_style == "random":
            for left in payload.left_items:
                for right in payload.right_items:
                    answers[join_qid(payload.task_name, left, right)] = rng.chance(
                        min(0.5, 2.0 / cells)
                    )
        else:
            for left in payload.left_items:
                for right in payload.right_items:
                    answers[join_qid(payload.task_name, left, right)] = (
                        worker.spam_style == "always_yes"
                    )
        return answers
    extra_miss = min(GRID_MISS_CAP, GRID_MISS_PER_CELL * max(0, cells - 4))
    task_name = payload.task_name
    join_match = truth.join_match
    raw_random = rng.raw.random
    miss = min(0.9, worker.join_miss + extra_miss)
    miss_draws = _chance_draws(miss)
    miss_always = miss >= 1.0
    false_alarm = worker.join_false_alarm
    fa_draws = _chance_draws(false_alarm)
    fa_always = false_alarm >= 1.0
    for left in payload.left_items:
        for right in payload.right_items:
            if join_match(task_name, left, right):
                missed = raw_random() < miss if miss_draws else miss_always
                answers[f"{task_name}:join:{left}|{right}"] = not missed
            else:
                alarmed = raw_random() < false_alarm if fa_draws else fa_always
                answers[f"{task_name}:join:{left}|{right}"] = alarmed
    return answers


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def _perceived(
    worker: WorkerProfile,
    task_name: str,
    item: str,
    truth: GroundTruth,
    rng: RandomSource,
) -> float:
    rank_truth = truth.rank_truth(task_name)
    if rank_truth.random_answers or worker.is_spammer:
        return rng.random()
    sigma = worker.compare_noise * rank_truth.comparison_ambiguity
    return truth.latent_value(task_name, item) + rng.gauss(0.0, sigma)


@lru_cache(maxsize=8192)
def _compare_pair_layout(
    task_name: str, items: tuple[str, ...]
) -> tuple[tuple[int, int, str], ...]:
    """(i, j, qid) for every pair of a comparison group.

    Groups repeat across a HIT's assignments (and often across workers'
    overlapping covering groups), so the pair qid strings are built once.
    """
    pairs = []
    for i in range(len(items)):
        a = items[i]
        for j in range(i + 1, len(items)):
            b = items[j]
            lo, hi = (a, b) if a <= b else (b, a)
            pairs.append((i, j, f"{task_name}:cmp:{lo}|{hi}"))
    return tuple(pairs)


def _answer_compare(
    worker: WorkerProfile,
    payload: ComparePayload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
) -> dict[str, object]:
    """Rank each group by perceived value; emit every pairwise outcome.

    The vote value for pair qid ``task:cmp:a|b`` is the winning (greater)
    item's reference. Each item costs one draw: a gauss around its latent
    value, or a uniform for random-answer tasks and spammers. Honest
    workers on batched HITs draw one more gauss of fatigue noise per item;
    spammers never tire.
    """
    answers: dict[str, object] = {}
    task_name = payload.task_name
    rank_truth = truth.rank_truth(task_name)
    random_answers = rank_truth.random_answers or worker.is_spammer
    sigma = worker.compare_noise * rank_truth.comparison_ambiguity
    latent_value = truth.latent_value
    gauss = rng.raw.gauss
    raw_random = rng.raw.random
    batch = worker.batch_factor(units)
    fatigue = batch > 1.0 and not worker.is_spammer
    fatigue_sigma = 0.01 * (batch - 1.0)
    for group in payload.groups:
        items = group.items
        perceived: list[float] = []
        for item in items:
            if random_answers:
                value = raw_random()
            else:
                value = latent_value(task_name, item) + gauss(0.0, sigma)
            if fatigue:
                value += gauss(0.0, fatigue_sigma)
            perceived.append(value)
        for i, j, qid in _compare_pair_layout(task_name, items):
            answers[qid] = items[i] if perceived[i] >= perceived[j] else items[j]
    return answers


def _answer_rate(
    worker: WorkerProfile,
    payload: RatePayload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
) -> dict[str, object]:
    """Likert points from perceived value plus the worker's bias; spammers
    pick a uniform point."""
    task_name = payload.task_name
    scale = payload.scale_points
    if worker.is_spammer:
        return {
            rate_qid(task_name, question.item): rng.randint(1, scale)
            for question in payload.questions
        }
    answers: dict[str, object] = {}
    rank_truth = truth.rank_truth(task_name)
    random_answers = rank_truth.random_answers
    sigma = worker.rate_noise * rank_truth.rating_ambiguity
    latent_value = truth.latent_value
    gauss = rng.raw.gauss
    raw_random = rng.raw.random
    rate_bias = worker.rate_bias
    span = scale - 1
    for question in payload.questions:
        item = question.item
        if random_answers:
            perceived = raw_random()
        else:
            perceived = latent_value(task_name, item) + gauss(0.0, sigma)
        point = round(1 + span * perceived + rate_bias)
        answers[f"{task_name}:rate:{item}"] = max(1, min(scale, point))
    return answers


def _answer_pick_best(
    worker: WorkerProfile,
    payload: PickBestPayload,
    truth: GroundTruth,
    rng: RandomSource,
) -> dict[str, object]:
    if worker.is_spammer:
        return {payload.qid(): rng.choice(list(payload.items))}
    perceived = {
        item: _perceived(worker, payload.task_name, item, truth, rng)
        for item in payload.items
    }
    chooser = max if payload.pick_most else min
    best = chooser(payload.items, key=lambda item: perceived[item])
    return {payload.qid(): best}


# ---------------------------------------------------------------------------
# Generative
# ---------------------------------------------------------------------------


def _answer_generative(
    worker: WorkerProfile,
    payload: GenerativePayload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
    combined: bool,
) -> dict[str, object]:
    answers: dict[str, object] = {}
    for question in payload.questions:
        for spec in payload.fields:
            qid = generative_qid(payload.task_name, question.item, spec.name)
            if spec.is_categorical:
                answers[qid] = _categorical_answer(
                    worker, payload.task_name, spec, question.item, truth, rng, units, combined
                )
            else:
                answers[qid] = _text_answer(
                    worker, payload.task_name, spec.name, question.item, truth, rng
                )
    return answers


def _categorical_answer(
    worker: WorkerProfile,
    task_name: str,
    spec,
    item: str,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
    combined: bool,
) -> object:
    options = list(spec.options)
    if worker.is_spammer:
        if worker.spam_style == "first_option" and options:
            return options[0]
        return rng.choice(options) if options else "spam"
    feature = truth.feature_truth(task_name, spec.name)
    careless = worker.error_rate(worker.feature_carelessness, units)
    if options and rng.chance(careless):
        return rng.choice(options)
    distribution = feature.answer_distribution(item, combined)
    labels = list(distribution.keys())
    weights = [distribution[label] for label in labels]
    answer = labels[rng.weighted_index(weights)]
    # A small chance of honest uncertainty when UNKNOWN is offered.
    from repro.relational.expressions import UNKNOWN

    if UNKNOWN in options and answer is not UNKNOWN and rng.chance(UNKNOWN_RATE):
        return UNKNOWN
    return answer


def _text_answer(
    worker: WorkerProfile,
    task_name: str,
    field_name: str,
    item: str,
    truth: GroundTruth,
    rng: RandomSource,
) -> str:
    if worker.is_spammer:
        return rng.choice(["asdf", "good", "nice", "dont know", "n/a"])
    answer = truth.text_answer(task_name, field_name, item)
    if rng.chance(worker.feature_carelessness):
        return rng.choice(["dunno", "not sure", answer.split()[0] if answer else ""])
    # Surface noise that normalizers are built to strip.
    variant = rng.randint(0, 3)
    if variant == 1:
        return answer.upper()
    if variant == 2:
        return f"  {answer.title()} "
    if variant == 3:
        return answer.replace(" ", "  ")
    return answer


# ---------------------------------------------------------------------------
# Builtin payload-kind registrations
# ---------------------------------------------------------------------------
# Adapters narrow the uniform (worker, payload, truth, rng, units, combined)
# signature down to what each generator actually reads.

register_payload_answerer(
    FilterPayload.kind,
    lambda worker, payload, truth, rng, units, combined: _answer_filter(
        worker, payload, truth, rng, units
    ),
)
register_payload_answerer(
    GenerativePayload.kind,
    lambda worker, payload, truth, rng, units, combined: _answer_generative(
        worker, payload, truth, rng, units, combined
    ),
)
register_payload_answerer(
    ComparePayload.kind,
    lambda worker, payload, truth, rng, units, combined: _answer_compare(
        worker, payload, truth, rng, units
    ),
)
register_payload_answerer(
    RatePayload.kind,
    lambda worker, payload, truth, rng, units, combined: _answer_rate(
        worker, payload, truth, rng, units
    ),
)
register_payload_answerer(
    JoinPairsPayload.kind,
    lambda worker, payload, truth, rng, units, combined: _answer_join_pairs(
        worker, payload, truth, rng, units
    ),
)
register_payload_answerer(
    JoinGridPayload.kind,
    lambda worker, payload, truth, rng, units, combined: _answer_join_grid(
        worker, payload, truth, rng
    ),
)
register_payload_answerer(
    PickBestPayload.kind,
    lambda worker, payload, truth, rng, units, combined: _answer_pick_best(
        worker, payload, truth, rng
    ),
)
