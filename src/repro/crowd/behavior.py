"""Answer generation: how a given worker answers a given HIT.

This is where the worker answer model (:mod:`repro.crowd.worker`) meets
ground truth, sampled answer by answer on the scalar ``random.Random``
stream. Each payload kind has a generator; a HIT's answers are the union
over its payloads. The HIT-level batch size (total atomic units) scales
error rates — batching degrades honest answers mildly and attracts
spammers strongly, which together produce the paper's Figure 3 shape.

Noise models:

* **Comparisons** (Thurstonian): the worker perceives each item's latent
  value plus Gaussian noise with σ = worker.compare_noise × task ambiguity,
  then ranks the group by perceived value. Close items under ambiguous
  criteria invert often; crisp tasks (squares) almost never.
* **Ratings**: Likert point = round(1 + (scale − 1) × perceived + worker
  bias), clamped to the scale. Perception noise uses the task's rating
  ambiguity, which exceeds comparison ambiguity (absolute judgements are
  harder than relative ones — why Rate trails Compare in §4.2).
* **Joins**: miss/false-alarm probabilities, inflated for grid interfaces
  with many cells (SmartBatch misses come from failing to click a pair).
* **Features**: careful workers draw from the dataset's confusion kernel
  (blond vs white hair, skin tone discomfort in isolation); careless draws
  are uniform over the options.
"""

from __future__ import annotations

from dataclasses import replace

from repro.crowd.truth import GroundTruth
from repro.crowd.worker import (
    BINARY_LAWS,
    UNKNOWN_RATE,
    WorkerProfile,
    batch_factor,
    careless_rate,
    compare_sigma,
    fatigue_sigma,
    likert_point,
    rate_sigma,
    spam_takes_first,
    spam_yes_rate,
)
from repro.errors import MarketplaceError
from repro.hits.hit import (
    HIT,
    ComparePayload,
    GenerativePayload,
    Payload,
    PickBestPayload,
    RatePayload,
    generative_qid,
    rate_qid,
)
from repro.tasks.registry import DispatchTable
from repro.util.rng import RandomSource


def answer_hit(
    worker: WorkerProfile, hit: HIT, truth: GroundTruth, rng: RandomSource
) -> dict[str, object]:
    """All answers one worker gives to one HIT.

    A single-payload HIT (every Simple-join pair, most sort HITs) returns
    its handler's dict; a HIT that merged payloads returns their union.
    """
    payloads = hit.payloads
    if len(payloads) == 1:
        payload = payloads[0]
        handler = PAYLOAD_ANSWERERS.lookup(payload.kind)
        if handler is None:
            raise _no_behaviour_model(payload)
        # One payload is one task, so it never spans Generative tasks.
        return handler(worker, payload, truth, rng, hit.unit_count, False)
    units = hit.unit_count
    combined = hit.combined_generative
    answers: dict[str, object] = {}
    for payload in payloads:
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
        raise _no_behaviour_model(payload)
    return handler(worker, payload, truth, rng, units, combined)


def _no_behaviour_model(payload: Payload) -> MarketplaceError:
    return MarketplaceError(f"no behaviour model for {type(payload).__name__}")


# ---------------------------------------------------------------------------
# Binary questions
# ---------------------------------------------------------------------------


def _chance_draws(probability: float) -> bool:
    """Whether ``RandomSource.chance(probability)`` consumes a draw.

    The answer loops below inline ``chance`` with raw draws; probabilities
    at or beyond 0/1 short-circuit without touching the stream, and that
    edge must be preserved exactly.
    """
    return 0.0 < probability < 1.0


def _answer_binary(
    worker: WorkerProfile,
    payload: Payload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
    combined: bool,
) -> dict[str, object]:
    """Yes/no answers to a filter, join-pair or join-grid payload, from the
    model's :class:`~repro.crowd.worker.BinaryLaw` for its kind.

    A spammer answers each row at their style's "yes" rate. An honest
    worker answers each row against the miss or false-alarm rate of its
    true answer, then, where the law is biased, may flip it with their
    yes-bias. ``chance`` is inlined against the raw stream (same draws as
    the wrapper). Each rate is worked out when a row first needs it, so a
    single-pair payload computes only one; computing a rate draws nothing.
    """
    law = BINARY_LAWS[payload.kind]
    rows = law.rows(payload, truth)
    extra, spam_rate = law.terms(payload)
    raw_random = rng.raw.random
    if worker.is_spammer:
        p_yes = spam_yes_rate(worker, spam_rate)
        draws = _chance_draws(p_yes)
        always = p_yes >= 1.0
        return {qid: raw_random() < p_yes if draws else always for qid, _ in rows}
    answers: dict[str, object] = {}
    miss = false_alarm = None
    yes_bias = worker.yes_bias if law.biased else 0.0
    if yes_bias:
        bias_draws = _chance_draws(abs(yes_bias))
        bias_always = abs(yes_bias) >= 1.0
    for qid, correct in rows:
        if correct:
            if miss is None:
                factor = batch_factor(worker.batch_error_growth, units)
                miss = law.flip(worker, factor, extra, True)
                miss_draws = _chance_draws(miss)
                miss_always = miss >= 1.0
            flip = raw_random() < miss if miss_draws else miss_always
        else:
            if false_alarm is None:
                factor = batch_factor(worker.batch_error_growth, units)
                false_alarm = law.flip(worker, factor, extra, False)
                fa_draws = _chance_draws(false_alarm)
                fa_always = false_alarm >= 1.0
            flip = raw_random() < false_alarm if fa_draws else fa_always
        answer = (not correct) if flip else correct
        # Yes-bias: a biased worker occasionally turns a "no" into "yes"
        # (negative bias: a "yes" into "no") beyond their error rate.
        if yes_bias and (answer if yes_bias < 0 else not answer):
            if raw_random() < abs(yes_bias) if bias_draws else bias_always:
                answer = not answer
        answers[qid] = answer
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
    sigma = compare_sigma(worker, rank_truth.comparison_ambiguity)
    return truth.latent_value(task_name, item) + rng.gauss(0.0, sigma)


def _answer_compare(
    worker: WorkerProfile,
    payload: ComparePayload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
    combined: bool,
) -> dict[str, object]:
    """Rank each group by perceived value; emit every pairwise outcome.

    The vote value for pair qid ``task:cmp:a|b`` is the winning (greater)
    item's reference. Each item costs one draw: a gauss around its latent
    value, or a uniform for random-answer tasks and spammers. Honest
    workers on batched HITs draw one more gauss of fatigue noise per item;
    spammers never tire. The pair qids come from the payload's
    :meth:`~repro.hits.hit.ComparePayload.pair_layouts`, which the HIT's
    assignments share.
    """
    answers: dict[str, object] = {}
    task_name = payload.task_name
    rank_truth = truth.rank_truth(task_name)
    random_answers = rank_truth.random_answers or worker.is_spammer
    sigma = compare_sigma(worker, rank_truth.comparison_ambiguity)
    latent_value = truth.latent_value
    gauss = rng.raw.gauss
    raw_random = rng.raw.random
    fatigue = fatigue_sigma(batch_factor(worker.batch_error_growth, units))
    fatigued = fatigue > 0.0 and not worker.is_spammer
    for group, layout in zip(payload.groups, payload.pair_layouts()):
        items = group.items
        perceived: list[float] = []
        for item in items:
            if random_answers:
                value = raw_random()
            else:
                value = latent_value(task_name, item) + gauss(0.0, sigma)
            if fatigued:
                value += gauss(0.0, fatigue)
            perceived.append(value)
        for i, j, qid in layout:
            answers[qid] = items[i] if perceived[i] >= perceived[j] else items[j]
    return answers


def _answer_rate(
    worker: WorkerProfile,
    payload: RatePayload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
    combined: bool,
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
    sigma = rate_sigma(worker, rank_truth.rating_ambiguity)
    latent_value = truth.latent_value
    gauss = rng.raw.gauss
    raw_random = rng.raw.random
    rate_bias = worker.rate_bias
    for question in payload.questions:
        item = question.item
        if random_answers:
            perceived = raw_random()
        else:
            perceived = latent_value(task_name, item) + gauss(0.0, sigma)
        answers[f"{task_name}:rate:{item}"] = likert_point(perceived, scale, rate_bias)
    return answers


def _answer_pick_best(
    worker: WorkerProfile,
    payload: PickBestPayload,
    truth: GroundTruth,
    rng: RandomSource,
    units: int,
    combined: bool,
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
        if spam_takes_first(worker) and options:
            return options[0]
        return rng.choice(options) if options else "spam"
    feature = truth.feature_truth(task_name, spec.name)
    careless = careless_rate(worker, batch_factor(worker.batch_error_growth, units))
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

for _kind in BINARY_LAWS:
    register_payload_answerer(_kind, _answer_binary)
register_payload_answerer(GenerativePayload.kind, _answer_generative)
register_payload_answerer(ComparePayload.kind, _answer_compare)
register_payload_answerer(RatePayload.kind, _answer_rate)
register_payload_answerer(PickBestPayload.kind, _answer_pick_best)
