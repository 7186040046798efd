"""Vectorized marketplace dispatch kernel (``REPRO_VECTOR=1``).

The scalar dispatch loop (:meth:`SimulatedMarketplace._dispatch`) burns
one Python iteration per worker *consideration* — RNG draw, slot select,
pool pick, acceptance check — of which there are several per completed
assignment. This module batches that stream with
numpy: inter-arrival gaps, slot indices, and acceptance uniforms are drawn
in round-sized chunks from a dedicated :class:`numpy.random.Generator`, and
refusal runs / deadline cutoffs are resolved with array scans.

Determinism domain
------------------
numpy's bulk generators cannot replay ``random.Random``'s stream, so this
kernel is a *second pinned determinism domain*: with ``REPRO_VECTOR=1`` a
fixed seed is bit-reproducible run-to-run (PCG64 streams are stable across
numpy versions, and every draw below happens in a fixed order), while
aggregate behaviour is pinned to the scalar path by the statistical
equivalence suite (``tests/test_vector_stats.py``). The kernel seed derives
from the group stream exactly like the scalar answer streams do:
``child_seed_from_material(f"{rng.seed}:vector")``.

Batched rounds
--------------
Each round considers a chunk of lanes against the alive slots:

1. draw slot ranks uniformly over the round-start alive set, plus one
   acceptance uniform per lane; a slot's acceptance probability is the
   weight-marginalised ``sum(w·α)/sum(w)`` over its hit's still-eligible
   workers, which is exactly the scalar law of "pick a worker ∝ w, then
   accept with α";
2. the first accepting lane of a slot wins it; every *later* lane that
   drew the same slot (accepted or refused) is dropped as if it never
   considered — conditioning the uniform slot draw on "still alive", which
   reproduces the scalar marginal without sequential re-draws;
3. per-lane alive counts come from the running accept prefix sum, so gap
   draws use the same ``rates[alive]`` evolution as the scalar loop, and
   deadline / sustained-refusal aborts are found with array scans;
4. accepted lanes draw their worker ∝ ``w·α`` by inverse-CDF over the
   class cumulative, with vectorized rejection-redraw for workers already
   on the hit (including earlier winners of the same round).

Scalar tail
-----------
Per-assignment *records* stay Python objects: ``Assignment`` tuples and
answer dicts are built once per round from the round's arrays, stats are
folded in once per group, and the fault overlay runs after dispatch on the
returned assignment list, so it composes with this kernel unchanged.
Answer synthesis is vectorized per payload kind where the behaviour model
allows it; HITs carrying payload kinds without a vector planner (free-text
generative fields, pick-best, out-of-tree kinds) fall back to the exact
scalar ``child_seed`` derivation — such assignments carry the *same*
answers the scalar dispatch loop would produce for the same (hit,
sequence, worker) triple.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Sequence

from repro.crowd.behavior import (
    GRID_MISS_CAP,
    GRID_MISS_PER_CELL,
    UNKNOWN_RATE,
    answer_hit,
)
from repro.errors import MarketplaceError
from repro.hits.hit import (
    HIT,
    Assignment,
    ComparePayload,
    FilterPayload,
    GenerativePayload,
    JoinGridPayload,
    JoinPairsPayload,
    RatePayload,
    compare_qid,
    filter_qid,
    generative_qid,
    join_qid,
    rate_qid,
)
from repro.relational.expressions import UNKNOWN
from repro.tasks.registry import DispatchTable
from repro.util import vector as vector_toggle
from repro.util.rng import RandomSource, child_seed_from_material

_new_tuple = tuple.__new__

ROUND_TARGET_FRACTION = 0.10
"""Aimed-for accepted fraction of the alive slots per batched round.

Larger rounds amortise numpy call overhead but raise the share of lanes
dropped by the first-accept-wins rule and the staleness of same-hit
acceptance sums within a round; 10% keeps both effects well inside the
statistical-equivalence tolerances."""

MIN_ROUND_TARGET = 16.0
"""Floor on the per-round accept target (keeps endgame rounds chunky)."""

MIN_ROUND_DRAWS = 64
MAX_ROUND_DRAWS = 1 << 16

_STYLE_CODES = {"random": 0, "always_yes": 1, "always_no": 2, "first_option": 3}
_STYLE_ALWAYS_YES = 1
_STYLE_FIRST = 3


def dispatch_vector(
    market,
    hits: Sequence[HIT],
    rng: RandomSource,
    post_time: float,
    trial_factor: float,
):
    """Dispatch one HIT group with the numpy kernel.

    Same contract as ``SimulatedMarketplace._dispatch``: returns
    ``(completed, now, incomplete_hit_ids)`` and updates the marketplace
    stats / assignment counter.
    """
    np = vector_toggle.numpy_module()
    if np is None:
        raise MarketplaceError("REPRO_VECTOR dispatch requires numpy")
    gen = np.random.Generator(
        np.random.PCG64(child_seed_from_material(f"{rng.seed}:vector"))
    )
    kernel = _GroupKernel(market, hits, rng, gen, np)
    return kernel.run(post_time, trial_factor)


# ---------------------------------------------------------------------------
# Worker-pool array tables (cached on pool.vector_cache; ban() clears them)
# ---------------------------------------------------------------------------


def _pool_worker_arrays(pool, np):
    """Per-worker parameter arrays over the eligible workers, pool order.

    The eligible list (non-banned workers in pool order) is identical for
    every ``batch_units``, so one set of parameter arrays serves all
    acceptance classes.
    """
    arrays = pool.vector_cache.get("workers")
    if arrays is None:
        workers = pool._candidate_table(1)[0]
        arrays = {
            "workers": workers,
            "worker_ids": [w.worker_id for w in workers],
            "speed": np.array([w.speed for w in workers], dtype=float),
            "is_spammer": np.array([w.is_spammer for w in workers], dtype=bool),
            "style": np.array(
                [_STYLE_CODES.get(w.spam_style, 0) for w in workers], dtype=np.int64
            ),
            "filter_error": np.array([w.filter_error for w in workers], dtype=float),
            "join_miss": np.array([w.join_miss for w in workers], dtype=float),
            "join_false_alarm": np.array(
                [w.join_false_alarm for w in workers], dtype=float
            ),
            "compare_noise": np.array([w.compare_noise for w in workers], dtype=float),
            "rate_noise": np.array([w.rate_noise for w in workers], dtype=float),
            "rate_bias": np.array([w.rate_bias for w in workers], dtype=float),
            "feature_carelessness": np.array(
                [w.feature_carelessness for w in workers], dtype=float
            ),
            "yes_bias": np.array([w.yes_bias for w in workers], dtype=float),
            "batch_error_growth": np.array(
                [w.batch_error_growth for w in workers], dtype=float
            ),
        }
        pool.vector_cache["workers"] = arrays
    return arrays


def _pool_class_table(pool, np, batch_units: int, effort_seconds: float):
    """(w, w·α, cumsum(w·α), total) arrays for one acceptance class.

    A class is a ``(batch_units, effort_seconds)`` pair: batch units set the
    spammer-affinity weights, effort sets each worker's acceptance α.
    """
    key = ("class", batch_units, effort_seconds)
    entry = pool.vector_cache.get(key)
    if entry is None:
        workers, weights = pool._candidate_table(batch_units)[:2]
        w = np.asarray(weights, dtype=float)
        alpha = np.array(
            [worker.acceptance_probability(effort_seconds) for worker in workers],
            dtype=float,
        )
        wa = w * alpha
        cum_wa = np.cumsum(wa)
        total_wa = float(cum_wa[-1]) if cum_wa.size else 0.0
        entry = (w, wa, cum_wa, float(w.sum()), total_wa)
        pool.vector_cache[key] = entry
    return entry


# ---------------------------------------------------------------------------
# Per-kind answer planners
# ---------------------------------------------------------------------------
#
# A planner accumulates per-question rows for every HIT of the group whose
# payloads it can vectorize, then emits batched answers for each round's
# accepted lanes. HITs with any un-plannable payload fall back to the scalar
# behaviour models (see _GroupKernel._scalar_answers).

VECTOR_ANSWER_PLANNERS = DispatchTable("vector answer planner")
"""``payload.kind`` → planner factory (see :class:`_KindPlan`).

Out-of-tree payload kinds may register a planner to join the vectorized
answer path; unregistered kinds simply use the scalar fallback."""


def register_vector_planner(kind: str, factory=None, *, replace: bool = False):
    """Register the vectorized answer planner for a payload kind."""
    return VECTOR_ANSWER_PLANNERS.register(kind, factory, replace=replace)


class _KindPlan:
    """Base class: per-group row accumulator + batched emitter for one kind."""

    kind = ""

    def __init__(self, n_hits: int) -> None:
        self.counts = [0] * n_hits
        self.starts = None
        self._count_arr = None

    def probe(self, payload) -> bool:
        """Whether this payload instance is vectorizable."""
        return True

    def add(self, payload, truth, hit_index: int) -> None:
        raise NotImplementedError

    def finalize(self, np) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        self._count_arr = counts
        self.starts = np.cumsum(counts) - counts

    def expand(self, np, win_hits):
        """(lane_of_row, row) index arrays for a batch of accepted lanes."""
        return _lane_rows(np, self.starts[win_hits], self._count_arr[win_hits])

    def emit(self, kernel, lanes) -> None:
        raise NotImplementedError


def _lane_rows(np, starts, counts):
    """(lane_of_row, row) for lanes owning ``counts[i]`` consecutive plan
    rows from ``starts[i]``, laid out lane by lane; ``(None, None)`` when
    the lanes own no rows."""
    total = int(counts.sum())
    if total == 0:
        return None, None
    lane_of_row = np.repeat(np.arange(counts.size), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.repeat(starts, counts) + (np.arange(total) - offsets)
    return lane_of_row, rows


def _store_rows(lanes, lane_of_row, qids, values) -> None:
    """Write one kind's flattened (lane, qid, value) rows into the per-lane
    answer dicts. ``values`` must already hold plain Python objects.

    Each lane's rows must be contiguous and the lanes ascending (the layout
    :func:`_lane_rows` produces), so one ``dict.update`` per lane over its
    slice of the (qid, value) pairs inserts the answers in row order, as
    row-by-row assignment would."""
    counts = lanes._np.bincount(lane_of_row, minlength=len(lanes.dicts)).tolist()
    pairs = zip(qids.tolist(), values.tolist())
    for answers, count in zip(lanes.dicts, counts):
        answers.update(islice(pairs, count))


class _BinaryPlan(_KindPlan):
    """Shared machinery for yes/no rows (filter and both join shapes).

    Row data: qid, the true answer, and the per-row flip probabilities the
    honest model applies; spam styles resolve per lane.
    """

    def __init__(self, n_hits: int) -> None:
        super().__init__(n_hits)
        self.qids: list[str] = []
        self.truths: list[bool] = []
        self.qid_arr = None
        self.truth_arr = None

    def finalize(self, np) -> None:
        super().finalize(np)
        self.qid_arr = np.array(self.qids, dtype=object)
        self.truth_arr = np.array(self.truths, dtype=bool)

    def _flip_rates(self, kernel, lanes, lane_of_row, rows):
        """(p_true_flip, p_false_flip) per row: probability the honest model
        reports the opposite of truth, split by the true value."""
        raise NotImplementedError

    def emit(self, kernel, lanes) -> None:
        np = kernel.np
        lane_of_row, rows = self.expand(np, lanes.win_hits)
        if rows is None:
            return
        gen = kernel.gen
        n = rows.size
        u_flip = gen.random(n)
        u_bias = gen.random(n)
        truth = self.truth_arr[rows]
        p_true_flip, p_false_flip = self._flip_rates(kernel, lanes, lane_of_row, rows)
        flip = np.where(truth, u_flip < p_true_flip, u_flip < p_false_flip)
        ans = truth ^ flip
        # Yes-bias: beyond the symmetric error, positive bias flips some
        # "no" answers to "yes" (and vice versa for negative bias).
        bias = lanes.yes_bias[lane_of_row]
        ans = np.where((bias > 0) & ~ans & (u_bias < bias), True, ans)
        ans = np.where((bias < 0) & ans & (u_bias < -bias), False, ans)
        # Spam styles override everything.
        spam = lanes.is_spammer[lane_of_row]
        if spam.any():
            style = lanes.style[lane_of_row]
            p_spam_yes = self._spam_random_rate(kernel, lanes, lane_of_row, rows, np)
            spam_ans = np.where(
                style == _STYLE_ALWAYS_YES, True, u_flip < p_spam_yes
            )
            spam_ans = np.where(style >= 2, False, spam_ans)  # always_no / first
            ans = np.where(spam, spam_ans, ans)
        _store_rows(lanes, lane_of_row, self.qid_arr[rows], ans)

    def _spam_random_rate(self, kernel, lanes, lane_of_row, rows, np):
        return 0.5


class _FilterPlan(_BinaryPlan):
    kind = FilterPayload.kind

    def add(self, payload, truth, hit_index: int) -> None:
        task = payload.task_name
        for question in payload.questions:
            self.qids.append(filter_qid(task, question.item))
            self.truths.append(truth.filter_answer(task, question.item))
        self.counts[hit_index] += len(payload.questions)

    def _flip_rates(self, kernel, lanes, lane_of_row, rows):
        error = lanes.error_rate(lanes.filter_error)[lane_of_row]
        return error, error


class _JoinPairsPlan(_BinaryPlan):
    kind = JoinPairsPayload.kind

    def add(self, payload, truth, hit_index: int) -> None:
        task = payload.task_name
        for pair in payload.pairs:
            self.qids.append(join_qid(task, pair.left, pair.right))
            self.truths.append(truth.join_match(task, pair.left, pair.right))
        self.counts[hit_index] += len(payload.pairs)

    def _flip_rates(self, kernel, lanes, lane_of_row, rows):
        miss = lanes.error_rate(lanes.join_miss)[lane_of_row]
        false_alarm = lanes.error_rate(lanes.join_false_alarm)[lane_of_row]
        return miss, false_alarm


class _JoinGridPlan(_BinaryPlan):
    kind = JoinGridPayload.kind

    def __init__(self, n_hits: int) -> None:
        super().__init__(n_hits)
        self.extra_miss: list[float] = []
        self.spam_rate: list[float] = []
        self.extra_arr = None
        self.spam_arr = None

    def add(self, payload, truth, hit_index: int) -> None:
        task = payload.task_name
        cells = payload.cell_count
        extra = min(GRID_MISS_CAP, GRID_MISS_PER_CELL * max(0, cells - 4))
        spam_rate = min(0.5, 2.0 / cells)
        for left in payload.left_items:
            for right in payload.right_items:
                self.qids.append(join_qid(task, left, right))
                self.truths.append(truth.join_match(task, left, right))
                self.extra_miss.append(extra)
                self.spam_rate.append(spam_rate)
        self.counts[hit_index] += cells

    def finalize(self, np) -> None:
        super().finalize(np)
        self.extra_arr = np.asarray(self.extra_miss, dtype=float)
        self.spam_arr = np.asarray(self.spam_rate, dtype=float)

    def _flip_rates(self, kernel, lanes, lane_of_row, rows):
        np = kernel.np
        # Grid misses are NOT batch-scaled: miss = min(0.9, join_miss +
        # extra), false alarms use the raw per-worker rate (see
        # behavior._answer_join_grid).
        miss = np.minimum(
            0.9, lanes.join_miss[lane_of_row] + self.extra_arr[rows]
        )
        false_alarm = lanes.join_false_alarm[lane_of_row]
        return miss, false_alarm

    def _spam_random_rate(self, kernel, lanes, lane_of_row, rows, np):
        return self.spam_arr[rows]


class _RatePlan(_KindPlan):
    kind = RatePayload.kind

    def __init__(self, n_hits: int) -> None:
        super().__init__(n_hits)
        self.qids: list[str] = []
        self.latents: list[float] = []
        self.ambiguity: list[float] = []
        self.random_flags: list[bool] = []
        self.scales: list[int] = []
        self.qid_arr = None
        self.latent_arr = None
        self.amb_arr = None
        self.random_arr = None
        self.scale_arr = None

    def add(self, payload, truth, hit_index: int) -> None:
        task = payload.task_name
        rank_truth = truth.rank_truth(task)
        random_answers = rank_truth.random_answers
        ambiguity = rank_truth.rating_ambiguity
        scale = payload.scale_points
        for question in payload.questions:
            self.qids.append(rate_qid(task, question.item))
            self.latents.append(
                0.0 if random_answers else truth.latent_value(task, question.item)
            )
            self.ambiguity.append(ambiguity)
            self.random_flags.append(random_answers)
            self.scales.append(scale)
        self.counts[hit_index] += len(payload.questions)

    def finalize(self, np) -> None:
        super().finalize(np)
        self.qid_arr = np.array(self.qids, dtype=object)
        self.latent_arr = np.asarray(self.latents, dtype=float)
        self.amb_arr = np.asarray(self.ambiguity, dtype=float)
        self.random_arr = np.asarray(self.random_flags, dtype=bool)
        self.scale_arr = np.asarray(self.scales, dtype=np.int64)

    def emit(self, kernel, lanes) -> None:
        np = kernel.np
        lane_of_row, rows = self.expand(np, lanes.win_hits)
        if rows is None:
            return
        gen = kernel.gen
        n = rows.size
        noise = gen.standard_normal(n)
        u = gen.random(n)
        scale = self.scale_arr[rows]
        sigma = lanes.rate_noise[lane_of_row] * self.amb_arr[rows]
        perceived = np.where(
            self.random_arr[rows], u, self.latent_arr[rows] + noise * sigma
        )
        point = np.rint(
            1.0 + (scale - 1) * perceived + lanes.rate_bias[lane_of_row]
        ).astype(np.int64)
        point = np.clip(point, 1, scale)
        # Spammers click an arbitrary scale point.
        spam = lanes.is_spammer[lane_of_row]
        if spam.any():
            spam_point = np.minimum((u * scale).astype(np.int64) + 1, scale)
            point = np.where(spam, spam_point, point)
        _store_rows(lanes, lane_of_row, self.qid_arr[rows], point)


class _ComparePlan(_KindPlan):
    """Thurstonian comparisons: one perceived value per group item, then
    every pairwise winner. Item rows and pair rows are parallel tables; a
    pair row stores absolute item-row indices."""

    kind = ComparePayload.kind

    def __init__(self, n_hits: int) -> None:
        super().__init__(n_hits)
        # item rows (self.counts counts these)
        self.latents: list[float] = []
        self.ambiguity: list[float] = []
        self.random_flags: list[bool] = []
        self.items: list[str] = []
        # pair rows
        self.pair_counts = [0] * len(self.counts)
        self.pair_qids: list[str] = []
        self.pair_i: list[int] = []
        self.pair_j: list[int] = []
        self.latent_arr = None
        self.amb_arr = None
        self.random_arr = None
        self.item_arr = None
        self.pair_qid_arr = None
        self.pair_i_arr = None
        self.pair_j_arr = None
        self.pair_start_arr = None
        self.pair_count_arr = None

    def add(self, payload, truth, hit_index: int) -> None:
        task = payload.task_name
        rank_truth = truth.rank_truth(task)
        random_answers = rank_truth.random_answers
        ambiguity = rank_truth.comparison_ambiguity
        for group in payload.groups:
            base = len(self.items)
            for item in group.items:
                self.items.append(item)
                self.latents.append(
                    0.0 if random_answers else truth.latent_value(task, item)
                )
                self.ambiguity.append(ambiguity)
                self.random_flags.append(random_answers)
            items = group.items
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    self.pair_qids.append(compare_qid(task, items[i], items[j]))
                    self.pair_i.append(base + i)
                    self.pair_j.append(base + j)
            self.counts[hit_index] += len(items)
            self.pair_counts[hit_index] += len(items) * (len(items) - 1) // 2

    def finalize(self, np) -> None:
        super().finalize(np)
        self.latent_arr = np.asarray(self.latents, dtype=float)
        self.amb_arr = np.asarray(self.ambiguity, dtype=float)
        self.random_arr = np.asarray(self.random_flags, dtype=bool)
        self.item_arr = np.array(self.items, dtype=object)
        self.pair_qid_arr = np.array(self.pair_qids, dtype=object)
        self.pair_i_arr = np.asarray(self.pair_i, dtype=np.int64)
        self.pair_j_arr = np.asarray(self.pair_j, dtype=np.int64)
        pair_counts = np.asarray(self.pair_counts, dtype=np.int64)
        self.pair_count_arr = pair_counts
        self.pair_start_arr = np.cumsum(pair_counts) - pair_counts

    def emit(self, kernel, lanes) -> None:
        np = kernel.np
        win_hits = lanes.win_hits
        lane_of_item, item_rows = self.expand(np, win_hits)
        if item_rows is None:
            return
        gen = kernel.gen
        n = item_rows.size
        noise = gen.standard_normal(n)
        fatigue_noise = gen.standard_normal(n)
        u = gen.random(n)
        sigma = lanes.compare_noise[lane_of_item] * self.amb_arr[item_rows]
        perceived = np.where(
            self.random_arr[item_rows],
            u,
            self.latent_arr[item_rows] + noise * sigma,
        )
        # Batch fatigue: extra noise on large HITs (zero-scaled otherwise),
        # applied on top of random-answer draws too — but never to
        # spammers, whose uniform stands alone (see _answer_compare).
        fatigue_sigma = np.maximum(0.0, 0.01 * (lanes.batch_factor[lane_of_item] - 1.0))
        perceived = perceived + fatigue_noise * fatigue_sigma
        perceived = np.where(lanes.is_spammer[lane_of_item], u, perceived)
        # Map pair rows to per-lane flat positions in `perceived`.
        item_counts = self._count_arr[win_hits]
        lane_base = np.cumsum(item_counts) - item_counts
        lane_of_pair, pair_rows = _lane_rows(
            np, self.pair_start_arr[win_hits], self.pair_count_arr[win_hits]
        )
        if pair_rows is None:
            return
        hit_item_start = self.starts[win_hits[lane_of_pair]]
        base = lane_base[lane_of_pair]
        flat_i = self.pair_i_arr[pair_rows] - hit_item_start + base
        flat_j = self.pair_j_arr[pair_rows] - hit_item_start + base
        winner = np.where(
            perceived[flat_i] >= perceived[flat_j],
            self.item_arr[self.pair_i_arr[pair_rows]],
            self.item_arr[self.pair_j_arr[pair_rows]],
        )
        _store_rows(lanes, lane_of_pair, self.pair_qid_arr[pair_rows], winner)


class _GenerativePlan(_KindPlan):
    """Categorical (Radio) generative fields; any free-text field in the
    payload makes the whole HIT fall back to the scalar models."""

    kind = GenerativePayload.kind

    def __init__(self, n_hits: int) -> None:
        super().__init__(n_hits)
        self.rows: list[tuple] = []  # (qid, feature truth, item, options)
        self.qid_arr = None
        self.template_arr = None
        # Per-template tables, indexed through template_arr.
        self.lab_pad = None
        self.cum_pad = None
        self.total_arr = None
        self.n_dist_arr = None
        self.unknown_idx_arr = None
        self.opt_pad = None
        self.n_opt_arr = None
        self.first_opt_arr = None
        self.has_unknown_arr = None

    def probe(self, payload) -> bool:
        return all(spec.is_categorical for spec in payload.fields)

    def add(self, payload, truth, hit_index: int) -> None:
        task = payload.task_name
        combined_cache: dict[str, object] = {}
        for question in payload.questions:
            for spec in payload.fields:
                feature = combined_cache.get(spec.name)
                if feature is None:
                    feature = combined_cache[spec.name] = truth.feature_truth(
                        task, spec.name
                    )
                # `combined` is a per-HIT property resolved at plan time:
                # payload rows are added per hit, so it is constant here.
                options = tuple(spec.options)
                self.rows.append(
                    (
                        generative_qid(task, question.item, spec.name),
                        feature,
                        question.item,
                        options,
                    )
                )
        self.counts[hit_index] += len(payload.questions) * len(payload.fields)

    def finalize_with_hits(self, np, hits, row_hit_index) -> None:
        """Build the padded distribution and option tables (needs each row's
        hit for the ``combined`` flag) once per template.

        A template is one distinct (answer distribution, options) pair. Rows
        whose distributions and options compare equal draw from identical
        tables, so they share one table row; ``template_arr`` maps each plan
        row onto its template."""
        super().finalize(np)
        templates: dict[tuple, int] = {}
        row_template = []
        for (_, feature, item, options), hit_index in zip(self.rows, row_hit_index):
            distribution = feature.answer_distribution(
                item, hits[hit_index].combined_generative
            )
            key = (tuple(distribution), tuple(distribution.values()), options)
            row_template.append(templates.setdefault(key, len(templates)))
        self.qid_arr = np.array([row[0] for row in self.rows], dtype=object)
        self.template_arr = np.asarray(row_template, dtype=np.int64)
        self.rows = []
        n = len(templates)
        lmax = max(1, max((len(labels) for labels, _, _ in templates), default=1))
        omax = max(1, max((len(options) for _, _, options in templates), default=1))
        lab_pad = np.empty((n, lmax), dtype=object)
        cum_pad = np.full((n, lmax), np.inf, dtype=float)
        opt_pad = np.empty((n, omax), dtype=object)
        totals = []
        unknown_idx = []
        for index, (labels, weights, options) in enumerate(templates):
            running = 0.0
            uidx = -1
            for position, (label, weight) in enumerate(zip(labels, weights)):
                running += weight
                lab_pad[index, position] = label
                cum_pad[index, position] = running
                if uidx < 0 and label is UNKNOWN:
                    uidx = position
            totals.append(running)
            unknown_idx.append(uidx)
            for position, option in enumerate(options):
                opt_pad[index, position] = option
        self.lab_pad = lab_pad
        self.cum_pad = cum_pad
        self.total_arr = np.asarray(totals, dtype=float)
        self.n_dist_arr = np.array(
            [len(labels) for labels, _, _ in templates], dtype=np.int64
        )
        self.unknown_idx_arr = np.asarray(unknown_idx, dtype=np.int64)
        self.opt_pad = opt_pad
        self.n_opt_arr = np.array(
            [len(options) for _, _, options in templates], dtype=np.int64
        )
        self.first_opt_arr = np.array(
            [options[0] if options else "spam" for _, _, options in templates],
            dtype=object,
        )
        self.has_unknown_arr = np.array(
            [any(option is UNKNOWN for option in options) for _, _, options in templates],
            dtype=bool,
        )

    def emit(self, kernel, lanes) -> None:
        np = kernel.np
        lane_of_row, rows = self.expand(np, lanes.win_hits)
        if rows is None:
            return
        gen = kernel.gen
        n = rows.size
        u_careless = gen.random(n)
        u_option = gen.random(n)
        u_dist = gen.random(n)
        u_unknown = gen.random(n)
        template = self.template_arr[rows]
        n_opt = self.n_opt_arr[template]
        has_options = n_opt > 0
        option_idx = np.minimum(
            (u_option * np.maximum(n_opt, 1)).astype(np.int64), np.maximum(n_opt - 1, 0)
        )
        option_ans = self.opt_pad[template, option_idx]
        # Honest distribution draw (inverse CDF over the confusion kernel).
        point = u_dist * self.total_arr[template]
        dist_idx = (self.cum_pad[template] <= point[:, None]).sum(axis=1)
        dist_idx = np.minimum(dist_idx, self.n_dist_arr[template] - 1)
        ans = self.lab_pad[template, dist_idx]
        # Honest uncertainty: small chance of UNKNOWN when it is offered and
        # was not already drawn (careless draws skip this, like the scalar
        # early return).
        unknown_mask = (
            self.has_unknown_arr[template]
            & (dist_idx != self.unknown_idx_arr[template])
            & (u_unknown < UNKNOWN_RATE)
        )
        careless = (
            has_options
            & (u_careless < lanes.error_rate(lanes.feature_carelessness)[lane_of_row])
        )
        ans = np.where(unknown_mask & ~careless, UNKNOWN, ans)
        ans = np.where(careless, option_ans, ans)
        # Spammers: first_option picks the head, every other style answers
        # uniformly (or the "spam" placeholder without options).
        spam = lanes.is_spammer[lane_of_row]
        if spam.any():
            style = lanes.style[lane_of_row]
            spam_ans = np.where(has_options, option_ans, self.first_opt_arr[template])
            spam_ans = np.where(
                style == _STYLE_FIRST, self.first_opt_arr[template], spam_ans
            )
            ans = np.where(spam, spam_ans, ans)
        _store_rows(lanes, lane_of_row, self.qid_arr[rows], ans)


register_vector_planner(FilterPayload.kind, _FilterPlan)
register_vector_planner(JoinPairsPayload.kind, _JoinPairsPlan)
register_vector_planner(JoinGridPayload.kind, _JoinGridPlan)
register_vector_planner(RatePayload.kind, _RatePlan)
register_vector_planner(ComparePayload.kind, _ComparePlan)
register_vector_planner(GenerativePayload.kind, _GenerativePlan)


class _LaneBatch:
    """One round's accepted lanes, with per-lane worker parameter views."""

    def __init__(self, kernel, win_hits, widx, dicts) -> None:
        np = kernel.np
        workers = kernel.worker_arrays
        self.win_hits = win_hits
        self.dicts = dicts
        units = kernel.hit_units[win_hits]
        growth = workers["batch_error_growth"][widx]
        self.batch_factor = np.where(
            units <= 1, 1.0, np.minimum(3.0, 1.0 + growth * (units - 1))
        )
        self.is_spammer = workers["is_spammer"][widx]
        self.style = workers["style"][widx]
        self.filter_error = workers["filter_error"][widx]
        self.join_miss = workers["join_miss"][widx]
        self.join_false_alarm = workers["join_false_alarm"][widx]
        self.compare_noise = workers["compare_noise"][widx]
        self.rate_noise = workers["rate_noise"][widx]
        self.rate_bias = workers["rate_bias"][widx]
        self.feature_carelessness = workers["feature_carelessness"][widx]
        self.yes_bias = workers["yes_bias"][widx]
        self._np = np

    def error_rate(self, base):
        """WorkerProfile.error_rate, vectorized per lane."""
        return self._np.minimum(0.95, base * self.batch_factor)


class _GroupKernel:
    """All per-group state of one vectorized dispatch."""

    def __init__(self, market, hits: Sequence[HIT], rng, gen, np) -> None:
        self.np = np
        self.gen = gen
        self.market = market
        self.truth = market.truth
        self.hits = list(hits)
        self.hit_ids = [hit.hit_id for hit in self.hits]
        n_hits = len(self.hits)
        requested = np.array(
            [hit.assignments_requested for hit in self.hits], dtype=np.int64
        )
        self.slot_hit = np.repeat(np.arange(n_hits, dtype=np.int64), requested)
        self.n_slots = int(self.slot_hit.size)
        first_slot = np.cumsum(requested) - requested
        self.open_slots = requested
        self.slot_seq = (np.arange(self.n_slots) - first_slot[self.slot_hit]).tolist()
        self.hit_units = np.array([hit.unit_count for hit in self.hits], dtype=np.int64)
        self.hit_effort = np.array(
            [hit.effort_seconds for hit in self.hits], dtype=float
        )
        # Acceptance classes: (batch_units, effort) pairs.
        pool = market.pool
        self.worker_arrays = _pool_worker_arrays(pool, np)
        self.worker_ids = self.worker_arrays["worker_ids"]
        self.workers = self.worker_arrays["workers"]
        self.n_workers = len(self.workers)
        class_index: dict[tuple[int, float], int] = {}
        self.class_tables = []
        hit_class = []
        for hit in self.hits:
            key = (hit.unit_count, hit.effort_seconds)
            index = class_index.get(key)
            if index is None:
                index = class_index[key] = len(self.class_tables)
                self.class_tables.append(_pool_class_table(pool, np, key[0], key[1]))
            hit_class.append(index)
        self.hit_class = np.asarray(hit_class, dtype=np.int64)
        self.hit_sum_w = np.array(
            [self.class_tables[c][3] for c in hit_class], dtype=float
        )
        self.hit_sum_wa = np.array(
            [self.class_tables[c][4] for c in hit_class], dtype=float
        )
        self.excluded = np.zeros((n_hits, max(1, self.n_workers)), dtype=bool)
        self.worker_counts = np.zeros(max(1, self.n_workers), dtype=np.int64)
        self.seed_prefix = f"{rng.seed}:answers:"
        self._scalar_rng = RandomSource(0)
        self._build_answer_plans()

    # -- answer planning ------------------------------------------------

    def _build_answer_plans(self) -> None:
        np = self.np
        n_hits = len(self.hits)
        plans: dict[str, _KindPlan] = {}
        kind_order: list[str] = []
        fallback = np.zeros(n_hits, dtype=bool)
        gen_row_hits: list[int] = []
        for index, hit in enumerate(self.hits):
            factories = []
            for payload in hit.payloads:
                factory = VECTOR_ANSWER_PLANNERS.lookup(payload.kind)
                if factory is None:
                    factories = None
                    break
                plan = plans.get(payload.kind)
                probe = plan if plan is not None else factory(0)
                if not probe.probe(payload):
                    factories = None
                    break
                factories.append((payload, factory))
            if factories is None:
                fallback[index] = True
                continue
            for payload, factory in factories:
                plan = plans.get(payload.kind)
                if plan is None:
                    plan = plans[payload.kind] = factory(n_hits)
                    kind_order.append(payload.kind)
                before = plan.counts[index]
                plan.add(payload, self.truth, index)
                if payload.kind == GenerativePayload.kind:
                    gen_row_hits.extend(
                        [index] * (plan.counts[index] - before)
                    )
        for kind in kind_order:
            plan = plans[kind]
            if kind == GenerativePayload.kind:
                plan.finalize_with_hits(np, self.hits, gen_row_hits)
            else:
                plan.finalize(np)
        self.plans = plans
        self.kind_order = kind_order
        self.hit_fallback = fallback

    # -- main loop ------------------------------------------------------

    def run(self, post_time: float, trial_factor: float):
        np = self.np
        gen = self.gen
        market = self.market
        latency = market.latency
        config = latency.config
        deadline = post_time + latency.deadline_seconds
        max_refusals = config.max_consecutive_refusals
        work_overhead = config.work_overhead_seconds
        work_sigma = config.work_time_sigma
        rates = np.asarray(
            latency.pickup_rate_table(self.n_slots, market.time_of_day, trial_factor),
            dtype=float,
        )
        alive = np.arange(self.n_slots, dtype=np.int64)
        dead_mask = np.zeros(self.n_slots, dtype=bool)
        now = post_time
        carry_refusals = 0
        considerations = 0
        refusals = 0
        completed: list[Assignment] = []
        counter = market._assignment_counter
        ended = False

        while alive.size and not ended:
            a0 = alive.size
            hit_of_alive = self.slot_hit[alive]
            sum_w = self.hit_sum_w[hit_of_alive]
            p_alive = np.divide(
                self.hit_sum_wa[hit_of_alive],
                sum_w,
                out=np.zeros(a0, dtype=float),
                where=sum_w > 0.0,
            )
            np.clip(p_alive, 0.0, 1.0, out=p_alive)
            p_bar = float(p_alive.mean())
            n_draw = self._round_size(a0, p_bar, max_refusals - carry_refusals)
            ranks = gen.integers(0, a0, size=n_draw)
            u_accept = gen.random(n_draw)
            accepted = u_accept < p_alive[ranks]
            lane_slots = alive[ranks]
            # First accept per slot wins; later lanes that drew the same
            # slot this round never considered (see module docstring).
            acc_idx = np.flatnonzero(accepted)
            if acc_idx.size:
                slots_acc = lane_slots[acc_idx]
                uniq_slots, first_pos = np.unique(slots_acc, return_index=True)
                win_map = np.full(self.n_slots, n_draw, dtype=np.int64)
                win_map[uniq_slots] = acc_idx[first_pos]
                keep = win_map[lane_slots] >= np.arange(n_draw)
                if not keep.all():
                    lane_slots = lane_slots[keep]
                    accepted = accepted[keep]
            n_lanes = lane_slots.size
            acc_cum = np.cumsum(accepted)
            alive_before = a0 - (acc_cum - accepted)
            gaps = gen.standard_exponential(n_lanes) / rates[alive_before]
            times = now + np.cumsum(gaps)
            # Deadline: the crossing consideration never happens; the group
            # ends at the crossing instant, like the scalar break.
            over = np.flatnonzero(times > deadline)
            # Sustained refusals: the scalar loop processes the max-th
            # consecutive refusal, draws one more gap, then breaks.
            lane_index = np.arange(n_lanes)
            last_accept = np.maximum.accumulate(
                np.where(accepted, lane_index, -1)
            )
            run_length = lane_index - last_accept
            run_length = np.where(
                last_accept < 0, run_length + carry_refusals, run_length
            )
            trips = np.flatnonzero(~accepted & (run_length >= max_refusals))
            cut = n_lanes
            end_now = None
            if over.size and (not trips.size or over[0] <= trips[0]):
                ended = True
                cut = int(over[0])
                end_now = float(times[cut])
            elif trips.size:
                ended = True
                trip_at = int(trips[0])
                cut = trip_at + 1
                alive_after = int(a0 - acc_cum[trip_at])
                extra_gap = float(gen.standard_exponential()) / float(
                    rates[alive_after]
                )
                end_now = float(times[trip_at]) + extra_gap
            if cut > 0:
                processed = accepted[:cut]
                considerations += cut
                n_accepted = int(acc_cum[cut - 1])
                refusals += cut - n_accepted
                if not ended:
                    accept_positions = np.flatnonzero(processed)
                    if accept_positions.size:
                        carry_refusals = int(cut - 1 - accept_positions[-1])
                    else:
                        carry_refusals += cut
                    now = float(times[cut - 1])
                if n_accepted:
                    win = np.flatnonzero(processed)
                    win_slots = lane_slots[win]
                    counter, done_slots = self._commit(
                        win_slots,
                        times[win],
                        completed,
                        counter,
                        work_overhead,
                        work_sigma,
                    )
                    refusals += win_slots.size - done_slots.size
                    if done_slots.size:
                        dead_mask[done_slots] = True
                        alive = alive[~dead_mask[alive]]
            if ended:
                now = end_now

        market._assignment_counter = counter
        stats = market.stats
        stats.considerations += considerations
        stats.refusals += refusals
        counts = self.worker_counts
        total_done = int(counts.sum())
        if total_done:
            stats.assignments_completed += total_done
            record = stats.worker_assignment_counts
            for position in np.flatnonzero(counts).tolist():
                worker_id = self.worker_ids[position]
                record[worker_id] = record.get(worker_id, 0) + int(counts[position])
        incomplete = {
            self.hit_ids[index] for index in np.unique(self.slot_hit[alive]).tolist()
        }
        return completed, float(now), incomplete

    def _round_size(self, a0: int, p_bar: float, refusal_budget: int) -> int:
        if p_bar <= 1e-12:
            # Nobody will ever accept: draw just enough refusals to trip
            # the sustained-refusal abort.
            return int(min(MAX_ROUND_DRAWS, max(1, refusal_budget + 1)))
        target = max(MIN_ROUND_TARGET, ROUND_TARGET_FRACTION * a0)
        return int(min(MAX_ROUND_DRAWS, max(MIN_ROUND_DRAWS, target / p_bar)))

    # -- accepted-lane effects ------------------------------------------

    def _draw_workers(self, win_hits):
        """Worker index per accepted lane: inverse-CDF ∝ w·α per class, with
        rejection-redraw for workers already on the hit (including earlier
        winners of this round)."""
        np = self.np
        gen = self.gen
        k = win_hits.size
        lane_class = self.hit_class[win_hits]
        widx = np.zeros(k, dtype=np.int64)

        def draw(mask):
            for class_id in range(len(self.class_tables)):
                pick = mask & (lane_class == class_id)
                count = int(pick.sum())
                if not count:
                    continue
                cum_wa = self.class_tables[class_id][2]
                total = self.class_tables[class_id][4]
                points = gen.random(count) * total
                indices = np.searchsorted(cum_wa, points, side="right")
                widx[pick] = np.minimum(indices, self.n_workers - 1)

        draw(np.ones(k, dtype=bool))
        key_base = win_hits * self.n_workers
        for _ in range(64):
            invalid = self.excluded[win_hits, widx]
            keys = key_base + widx
            first = np.zeros(k, dtype=bool)
            first[np.unique(keys, return_index=True)[1]] = True
            redo = invalid | ~first
            if not redo.any():
                break
            draw(redo)
        else:
            self._resolve_stuck(win_hits, widx, lane_class)
        return widx, lane_class

    def _resolve_stuck(self, win_hits, widx, lane_class) -> None:
        """Exact sequential fallback for pathological exclusion states
        (more requested assignments than eligible workers). Lanes with no
        eligible worker left get the ``-1`` sentinel: the scalar path turns
        these into pool-exhausted refusals, so the caller drops them."""
        np = self.np
        gen = self.gen
        taken: dict[int, set] = {}
        for lane in range(win_hits.size):
            hit_index = int(win_hits[lane])
            chosen = taken.setdefault(hit_index, set())
            current = int(widx[lane])
            if (
                current >= 0
                and not self.excluded[hit_index, current]
                and current not in chosen
            ):
                chosen.add(current)
                continue
            wa = self.class_tables[int(lane_class[lane])][1]
            eligible_mask = (wa > 0.0) & ~self.excluded[hit_index]
            if chosen:
                eligible_mask[list(chosen)] = False
            eligible = np.flatnonzero(eligible_mask)
            if eligible.size == 0:
                widx[lane] = -1
                continue
            weights = wa[eligible]
            cums = np.cumsum(weights)
            point = float(gen.random()) * float(cums[-1])
            position = int(np.searchsorted(cums, point, side="right"))
            selected = int(eligible[min(position, eligible.size - 1)])
            widx[lane] = selected
            chosen.add(selected)

    def _commit(
        self,
        win_slots,
        accept_times,
        completed: list[Assignment],
        counter: int,
        work_overhead: float,
        work_sigma: float,
    ):
        np = self.np
        gen = self.gen
        win_hits = self.slot_hit[win_slots]
        widx, lane_class = self._draw_workers(win_hits)
        ok = widx >= 0
        if not ok.all():
            # Pool exhausted mid-round for these lanes (scalar path: a
            # pool-exhausted refusal) — they stay alive, never complete.
            win_slots = win_slots[ok]
            win_hits = win_hits[ok]
            widx = widx[ok]
            accept_times = accept_times[ok]
            if not win_slots.size:
                return counter, win_slots
        self.excluded[win_hits, widx] = True
        filled = np.bincount(win_hits, minlength=self.open_slots.size)
        self.open_slots -= filled
        # A HIT with no open slot is never drawn again, so its masses are
        # never read again either.
        self._refresh_masses(np.flatnonzero((filled > 0) & (self.open_slots > 0)))
        nominal = np.maximum(
            0.5, self.hit_effort[win_hits] * self.worker_arrays["speed"][widx]
        )
        work = work_overhead + nominal * gen.lognormal(0.0, work_sigma, win_slots.size)
        submit_times = accept_times + work
        answers = self._build_answers(win_slots, win_hits, widx)
        self.worker_counts += np.bincount(widx, minlength=self.worker_counts.size)
        first = counter + 1
        counter += win_slots.size
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        completed += map(
            _new_tuple,
            repeat(Assignment),
            zip(
                [f"asn-{number:06d}" for number in range(first, counter + 1)],
                map(self.hit_ids.__getitem__, win_hits.tolist()),
                map(self.worker_ids.__getitem__, widx.tolist()),
                answers,
                accept_times.tolist(),
                submit_times.tolist(),
            ),
        )
        return counter, win_slots

    def _refresh_masses(self, touched) -> None:
        """Recompute the touched HITs' eligible-worker masses exactly.

        Incremental subtraction would accumulate float drift and could leave
        a phantom positive acceptance mass on fully-served HITs. HITs are
        bucketed by (acceptance class, eligible count), so each bucket's
        eligible weights gather into one rectangular array whose rows numpy
        sums pairwise in the same order as the 1-D ``w[eligible].sum()``.
        """
        np = self.np
        eligible = ~self.excluded[touched]
        width = eligible.shape[1] + 1
        keys = self.hit_class[touched] * width + np.count_nonzero(eligible, axis=1)
        order = np.argsort(keys, kind="stable")
        keys, touched, eligible = keys[order], touched[order], eligible[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()
        for start, end in zip(starts, [*starts[1:], keys.size]):
            class_id, count = divmod(int(keys[start]), width)
            mask = eligible[start:end]
            hits = touched[start:end]
            for sums, weights in zip(
                (self.hit_sum_w, self.hit_sum_wa), self.class_tables[class_id][:2]
            ):
                # Boolean indexing keeps row-major order: row i holds HIT
                # i's eligible weights in worker order.
                rows = np.broadcast_to(weights, mask.shape)[mask]
                sums[hits] = rows.reshape(end - start, count).sum(axis=1)

    def _build_answers(self, win_slots, win_hits, widx):
        np = self.np
        k = win_slots.size
        fallback_lane = self.hit_fallback[win_hits]
        dicts: list[dict] = [{} for _ in range(k)]
        vec = np.flatnonzero(~fallback_lane)
        if vec.size:
            lanes = _LaneBatch(self, win_hits[vec], widx[vec], [dicts[i] for i in vec.tolist()])
            for kind in self.kind_order:
                self.plans[kind].emit(self, lanes)
        fb = np.flatnonzero(fallback_lane)
        if fb.size:
            self._scalar_answers(fb, win_slots, win_hits, widx, dicts)
        return dicts

    def _scalar_answers(self, fb, win_slots, win_hits, widx, dicts) -> None:
        """Scalar-tail answers for unvectorizable HITs, via the exact
        ``child_seed`` derivation of the scalar dispatch loop (same answers
        for the same hit/sequence/worker triple)."""
        child_rng = self._scalar_rng
        reseed = child_rng.reseed
        truth = self.truth
        prefix = self.seed_prefix
        for lane in fb.tolist():
            hit = self.hits[int(win_hits[lane])]
            sequence = self.slot_seq[int(win_slots[lane])]
            worker = self.workers[int(widx[lane])]
            reseed(
                child_seed_from_material(
                    f"{prefix}{hit.hit_id}:{sequence}:{worker.worker_id}"
                )
            )
            dicts[lane] = answer_hit(worker, hit, truth, child_rng)
