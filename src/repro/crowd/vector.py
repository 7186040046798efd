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
Answers are drawn per payload kind from the one worker answer model
(:mod:`repro.crowd.worker`), whose formulas run on numpy arrays as they do
on floats; HITs carrying payload kinds without a vector plan (free-text
generative fields, pick-best, out-of-tree kinds) fall back to the exact
scalar ``child_seed`` derivation — such assignments carry the *same*
answers the scalar dispatch loop would produce for the same (hit,
sequence, worker) triple.
"""

from __future__ import annotations

from functools import partial
from itertools import islice, repeat
from typing import Sequence

from repro.crowd.behavior import answer_hit
from repro.crowd.worker import (
    BINARY_LAWS,
    UNKNOWN_RATE,
    WORKER_COLUMNS,
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
    Assignment,
    ComparePayload,
    GenerativePayload,
    RatePayload,
    generative_qid,
    rate_qid,
)
from repro.relational.expressions import UNKNOWN
from repro.util.rng import RandomSource, child_seed_from_material
from repro.util.toggles import VECTOR

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
    if not VECTOR.available():
        raise MarketplaceError("REPRO_VECTOR dispatch requires numpy")
    import numpy as np

    gen = np.random.Generator(
        np.random.PCG64(child_seed_from_material(f"{rng.seed}:vector"))
    )
    kernel = _GroupKernel(market, hits, rng, gen, np)
    return kernel.run(post_time, trial_factor)


# ---------------------------------------------------------------------------
# Worker-pool array tables (cached on pool.vector_cache; ban() clears them)
# ---------------------------------------------------------------------------


def _pool_worker_arrays(pool, np):
    """One array per :data:`~repro.crowd.worker.WORKER_COLUMNS` attribute
    over the eligible workers, pool order.

    The eligible list (non-banned workers in pool order) is identical for
    every ``batch_units``, so one set of parameter arrays serves all
    acceptance classes.
    """
    arrays = pool.vector_cache.get("workers")
    if arrays is None:
        workers = pool._candidate_table(1)[0]
        arrays = {
            name: np.array([getattr(worker, name) for worker in workers])
            for name in WORKER_COLUMNS
        }
        arrays["workers"] = workers
        arrays["worker_ids"] = [worker.worker_id for worker in workers]
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
# Per-kind answer plans
# ---------------------------------------------------------------------------
#
# A plan accumulates per-question rows for every HIT of the group whose
# payloads it can vectorize, then emits batched answers for each round's
# accepted lanes. HITs with any un-plannable payload fall back to the scalar
# behaviour models (see _GroupKernel._scalar_answers).


class _KindPlan:
    """Base class: per-group row accumulator + batched emitter for one kind.

    ``add`` appends one tuple per answer row to ``rows``; ``finalize``
    turns position k of the rows into the array attribute ``COLUMNS[k]``.
    """

    COLUMNS: tuple[tuple[str, str], ...] = ()

    def __init__(self, n_hits: int) -> None:
        self.counts = [0] * n_hits
        self.rows: list[tuple] = []

    def add(self, payload, truth, hit_index: int) -> None:
        raise NotImplementedError

    def finalize(self, np) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        self._count_arr = counts
        self.starts = np.cumsum(counts) - counts
        _set_columns(self, np, self.rows, self.COLUMNS)

    def expand(self, np, win_hits):
        """(lane_of_row, row) index arrays for a batch of accepted lanes."""
        return _lane_rows(np, self.starts[win_hits], self._count_arr[win_hits])

    def emit(self, kernel, lanes) -> None:
        raise NotImplementedError


def _set_columns(plan, np, rows, columns) -> None:
    """Set each ``(name, dtype)`` of ``columns`` on ``plan`` as the array
    of that position of ``rows``."""
    for position, (name, dtype) in enumerate(columns):
        setattr(plan, name, np.array([row[position] for row in rows], dtype=dtype))


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
    """Yes/no rows (filter and both join shapes), answered by the model's
    :class:`~repro.crowd.worker.BinaryLaw` for the plan's kind.

    Rows are the law's (qid, true answer) pairs; each payload's extra grid
    miss and spam click rate spread over its rows; worker rates resolve per row.
    """

    COLUMNS = (("qid_arr", "object"), ("truth_arr", "bool"))

    def __init__(self, law, n_hits: int) -> None:
        super().__init__(n_hits)
        self.law = law
        self.terms: list[tuple] = []  # (row count, extra miss, spam rate)

    def add(self, payload, truth, hit_index: int) -> None:
        rows = self.law.rows(payload, truth)
        self.rows += rows
        self.terms.append((len(rows), *self.law.terms(payload)))
        self.counts[hit_index] += len(rows)

    def finalize(self, np) -> None:
        super().finalize(np)
        counts = [count for count, _, _ in self.terms]
        self.extra_arr = np.repeat([extra for _, extra, _ in self.terms], counts)
        self.spam_arr = np.repeat([spam for _, _, spam in self.terms], counts)

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
        workers = lanes.workers(lane_of_row)
        factor = batch_factor(workers.batch_error_growth, lanes.units[lane_of_row], np)
        extra = self.extra_arr[rows]
        ans = truth ^ (u_flip < self.law.flip(workers, factor, extra, truth, np))
        # Yes-bias: beyond the symmetric error, positive bias flips some
        # "no" answers to "yes" (and vice versa for negative bias). The
        # model biases filters only (``law.biased``); biasing join rows too
        # is this domain's one known deviation (tests/test_vector_answer_laws.py:
        # +7.1% "match" on pairs, +15.4% on 5x5 grids), held by the vector
        # golden and perfbench's t5_vector digests until they are re-pinned.
        bias = workers.yes_bias
        ans = np.where((bias > 0) & ~ans & (u_bias < bias), True, ans)
        ans = np.where((bias < 0) & ans & (u_bias < -bias), False, ans)
        # Spam styles override everything.
        spam = workers.is_spammer
        if spam.any():
            spam_ans = u_flip < spam_yes_rate(workers, self.spam_arr[rows], np)
            ans = np.where(spam, spam_ans, ans)
        _store_rows(lanes, lane_of_row, self.qid_arr[rows], ans)


class _RatePlan(_KindPlan):
    """Likert ratings: one perceived value per question, ticked on the
    scale by the model's Likert point."""

    COLUMNS = (
        ("qid_arr", "object"),
        ("latent_arr", "float64"),
        ("amb_arr", "float64"),
        ("random_arr", "bool"),
        ("scale_arr", "int64"),
    )

    def add(self, payload, truth, hit_index: int) -> None:
        task = payload.task_name
        rank_truth = truth.rank_truth(task)
        random_answers = rank_truth.random_answers
        ambiguity = rank_truth.rating_ambiguity
        scale = payload.scale_points
        for question in payload.questions:
            item = question.item
            latent = 0.0 if random_answers else truth.latent_value(task, item)
            self.rows.append(
                (rate_qid(task, item), latent, ambiguity, random_answers, scale)
            )
        self.counts[hit_index] += len(payload.questions)

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
        workers = lanes.workers(lane_of_row)
        sigma = rate_sigma(workers, self.amb_arr[rows])
        perceived = np.where(
            self.random_arr[rows], u, self.latent_arr[rows] + noise * sigma
        )
        point = likert_point(perceived, scale, workers.rate_bias, np).astype(np.int64)
        # Spammers click an arbitrary scale point.
        spam = workers.is_spammer
        if spam.any():
            spam_point = np.minimum((u * scale).astype(np.int64) + 1, scale)
            point = np.where(spam, spam_point, point)
        _store_rows(lanes, lane_of_row, self.qid_arr[rows], point)


class _ComparePlan(_KindPlan):
    """Thurstonian comparisons: one perceived value per group item, then
    every pairwise winner. Item rows and pair rows are parallel tables; a
    pair row stores absolute item-row indices."""

    COLUMNS = (
        ("latent_arr", "float64"),
        ("amb_arr", "float64"),
        ("random_arr", "bool"),
        ("item_arr", "object"),
    )
    PAIR_COLUMNS = (
        ("pair_qid_arr", "object"),
        ("pair_i_arr", "int64"),
        ("pair_j_arr", "int64"),
    )

    def __init__(self, n_hits: int) -> None:
        super().__init__(n_hits)
        self.pair_counts = [0] * n_hits
        self.pairs: list[tuple] = []

    def add(self, payload, truth, hit_index: int) -> None:
        task = payload.task_name
        rank_truth = truth.rank_truth(task)
        random_answers = rank_truth.random_answers
        ambiguity = rank_truth.comparison_ambiguity
        for group, layout in zip(payload.groups, payload.pair_layouts()):
            base = len(self.rows)
            for item in group.items:
                latent = 0.0 if random_answers else truth.latent_value(task, item)
                self.rows.append((latent, ambiguity, random_answers, item))
            self.pairs += [(qid, base + i, base + j) for i, j, qid in layout]
            self.counts[hit_index] += len(group.items)
            self.pair_counts[hit_index] += len(layout)

    def finalize(self, np) -> None:
        super().finalize(np)
        _set_columns(self, np, self.pairs, self.PAIR_COLUMNS)
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
        workers = lanes.workers(lane_of_item)
        sigma = compare_sigma(workers, self.amb_arr[item_rows])
        perceived = np.where(
            self.random_arr[item_rows],
            u,
            self.latent_arr[item_rows] + noise * sigma,
        )
        # Batch fatigue: extra noise on large HITs (zero-scaled otherwise),
        # applied on top of random-answer draws too — but never to
        # spammers, whose uniform stands alone (see _answer_compare).
        factor = batch_factor(workers.batch_error_growth, lanes.units[lane_of_item], np)
        fatigue = fatigue_sigma(factor, np)
        perceived = perceived + fatigue_noise * fatigue
        perceived = np.where(workers.is_spammer, u, perceived)
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
    payload makes the whole HIT fall back to the scalar models. Rows are
    (qid, feature truth, item, options) until :meth:`finalize_with_hits`
    turns them into per-template tables indexed through ``template_arr``."""

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
        workers = lanes.workers(lane_of_row)
        factor = batch_factor(workers.batch_error_growth, lanes.units[lane_of_row], np)
        careless = has_options & (u_careless < careless_rate(workers, factor, np))
        ans = np.where(unknown_mask & ~careless, UNKNOWN, ans)
        ans = np.where(careless, option_ans, ans)
        # Spammers: first_option picks the head, every other style answers
        # uniformly (or the "spam" placeholder without options).
        spam = workers.is_spammer
        if spam.any():
            spam_ans = np.where(has_options, option_ans, self.first_opt_arr[template])
            spam_ans = np.where(
                spam_takes_first(workers), self.first_opt_arr[template], spam_ans
            )
            ans = np.where(spam, spam_ans, ans)
        _store_rows(lanes, lane_of_row, self.qid_arr[rows], ans)


_PLANS = {
    **{kind: partial(_BinaryPlan, law) for kind, law in BINARY_LAWS.items()},
    RatePayload.kind: _RatePlan,
    ComparePayload.kind: _ComparePlan,
    GenerativePayload.kind: _GenerativePlan,
}
"""``payload.kind`` → plan factory; every other kind takes the scalar
fallback."""


def _vectorizable(payload) -> bool:
    """Whether a payload has a vector plan; a generative payload needs
    every field categorical."""
    if payload.kind == GenerativePayload.kind:
        return all(spec.is_categorical for spec in payload.fields)
    return payload.kind in _PLANS


class _Gathered:
    """Worker columns gathered at ``index`` (one worker per row), each on
    its first read, under the attribute names the answer model reads."""

    def __init__(self, columns, index) -> None:
        self._columns = columns
        self._index = index

    def __getattr__(self, name):
        if name not in self._columns:
            raise AttributeError(name)
        value = self._columns[name][self._index]
        setattr(self, name, value)
        return value


class _LaneBatch:
    """One round's accepted lanes: each lane's HIT, worker and answer dict."""

    def __init__(self, kernel, win_hits, widx, dicts) -> None:
        self.win_hits = win_hits
        self.dicts = dicts
        self._widx = widx
        self.units = kernel.hit_units[win_hits]
        self._columns = kernel.worker_arrays
        self._np = kernel.np

    def workers(self, lane_of_row) -> _Gathered:
        """The model's worker view of rows owned by ``lane_of_row``."""
        return _Gathered(self._columns, self._widx[lane_of_row])


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
        fallback = np.zeros(n_hits, dtype=bool)
        gen_row_hits: list[int] = []
        for index, hit in enumerate(self.hits):
            if not all(map(_vectorizable, hit.payloads)):
                fallback[index] = True
                continue
            for payload in hit.payloads:
                plan = plans.get(payload.kind)
                if plan is None:
                    plan = plans[payload.kind] = _PLANS[payload.kind](n_hits)
                before = plan.counts[index]
                plan.add(payload, self.truth, index)
                if payload.kind == GenerativePayload.kind:
                    gen_row_hits.extend(
                        [index] * (plan.counts[index] - before)
                    )
        for kind, plan in plans.items():
            if kind == GenerativePayload.kind:
                plan.finalize_with_hits(np, self.hits, gen_row_hits)
            else:
                plan.finalize(np)
        self.plans = plans
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
            for plan in self.plans.values():
                plan.emit(self, lanes)
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
