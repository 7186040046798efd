"""Exactness of the REPRO_VECTOR kernel's whole-array tails.

The kernel (:mod:`repro.crowd.vector`) recomputes eligible-worker masses,
builds generative answer tables and writes answer dicts a whole array at a
time. Each of these must give exactly what the one-HIT / one-row
construction gives, or the pinned vector golden trace would move:

* a bucket of HITs with equal acceptance class and eligible count sums its
  eligible weights row by row to the same floats as ``w[eligible].sum()``;
* generative tables built once per (answer distribution, options) template
  and gathered by row equal the tables built row by row;
* each lane's answer dict keeps its per-kind row order.

Everything here skips without numpy (the ``[vector]`` extra).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.crowd.truth import FeatureTruth
from repro.hits.hit import (
    Assignment,
    FilterPayload,
    FilterQuestion,
    GenerativeFieldSpec,
    GenerativePayload,
    GenerativeQuestion,
    filter_qid,
    generative_qid,
)
from repro.hits.manager import TaskManager
from repro.relational.expressions import UNKNOWN
from repro.util.rng import RandomSource
from repro.util.toggles import VECTOR

if not VECTOR.available():
    pytest.skip(
        "numpy not installed; REPRO_VECTOR kernel inactive", allow_module_level=True
    )

import numpy as np  # noqa: E402  (after the availability skip)

from repro.crowd.vector import (  # noqa: E402
    _GenerativePlan,
    _GroupKernel,
    _lane_rows,
    _store_rows,
)

ITEMS = [f"img://item/{i}" for i in range(24)]
HAIR = ("black", "brown", "blond", "white")


def _truth() -> GroundTruth:
    """Filter truth plus two categorical fields whose confusion kernels
    differ between the single and the combined interface."""
    truth = GroundTruth()
    truth.add_filter_task("keep", {item: i % 3 != 0 for i, item in enumerate(ITEMS)})
    hair = {item: HAIR[i % 4] for i, item in enumerate(ITEMS)}
    hair[ITEMS[5]] = "red"  # not in the confusion table: {truth: 1.0}
    truth.add_feature_task(
        "hair",
        "value",
        FeatureTruth(
            values=hair,
            options=(*HAIR, UNKNOWN),
            confusion={
                "black": {"black": 0.82, "brown": 0.11, UNKNOWN: 0.07},
                "brown": {"brown": 0.74, "black": 0.11, "blond": 0.07, UNKNOWN: 0.08},
                "blond": {"blond": 0.56, "white": 0.28, "brown": 0.06, UNKNOWN: 0.10},
            },
            confusion_combined={
                "black": {"black": 0.90, "brown": 0.06, UNKNOWN: 0.04},
                "white": {"white": 0.70, "blond": 0.22, UNKNOWN: 0.08},
            },
        ),
    )
    truth.add_feature_task(
        "tone",
        "value",
        FeatureTruth(
            values={item: ("light", "dark")[i % 2] for i, item in enumerate(ITEMS)},
            confusion={"light": {"light": 0.9, "dark": 0.1}},
        ),
    )
    return truth


def _hair(item: str) -> GenerativePayload:
    return GenerativePayload(
        "hair",
        (GenerativeQuestion(item),),
        (GenerativeFieldSpec("value", "Radio", (*HAIR, UNKNOWN)),),
    )


def _tone(item: str) -> GenerativePayload:
    # No options at all: careless and spam draws fall back to "spam".
    return GenerativePayload(
        "tone", (GenerativeQuestion(item),), (GenerativeFieldSpec("value", "Radio", ()),)
    )


def _kernel(manager: TaskManager, hits) -> _GroupKernel:
    return _GroupKernel(
        manager.platform,
        hits,
        RandomSource(7),
        np.random.Generator(np.random.PCG64(0)),
        np,
    )


# ---------------------------------------------------------------------------
# Batched eligible masses
# ---------------------------------------------------------------------------


ELIGIBLE_COUNTS = (0, 1, 3, 7, 8, 9, 64, 127, 128, 129, 140, 149, 150)
"""Below 8 (plain loop), 8 to 128 (one unrolled block) and above 128 (split
blocks) in numpy's pairwise summation; the default pool has 150 workers."""


@pytest.mark.parametrize("tables", ["pool", "wide"])
def test_batched_masses_equal_per_hit_sums(tables):
    truth = _truth()
    manager = TaskManager(SimulatedMarketplace(truth, seed=3))
    units = [[FilterPayload("keep", (FilterQuestion(item),))] for item in ITEMS]
    # Two batch sizes give two acceptance classes.
    hits = manager.build_hits(units[:12], batch_size=1, assignments=3, label="a")
    hits += manager.build_hits(units[12:], batch_size=3, assignments=3, label="b")
    kernel = _kernel(manager, hits)
    n_hits, n_workers = kernel.excluded.shape
    assert n_workers == 150
    assert len(kernel.class_tables) == 2
    rng = np.random.default_rng(11)
    if tables == "wide":
        # Weights over 16 orders of magnitude: any change of summation
        # order shows up in the last bits.
        kernel.class_tables = [
            (10.0 ** rng.uniform(-8, 8, n_workers), 10.0 ** rng.uniform(-8, 8, n_workers))
            for _ in kernel.class_tables
        ]
    order_sensitive = False
    for _ in range(40):
        counts = rng.choice(ELIGIBLE_COUNTS, size=n_hits)
        kernel.excluded[:] = True
        for hit_index, count in enumerate(counts.tolist()):
            kernel.excluded[hit_index, rng.choice(n_workers, count, replace=False)] = False
        touched = np.unique(rng.choice(n_hits, size=n_hits // 2))
        before_w = kernel.hit_sum_w.copy()
        before_wa = kernel.hit_sum_wa.copy()
        kernel._refresh_masses(touched)
        for hit_index in range(n_hits):
            if hit_index not in touched:
                assert kernel.hit_sum_w[hit_index] == before_w[hit_index]
                assert kernel.hit_sum_wa[hit_index] == before_wa[hit_index]
                continue
            w, wa = kernel.class_tables[kernel.hit_class[hit_index]][:2]
            eligible = ~kernel.excluded[hit_index]
            assert kernel.hit_sum_w[hit_index] == w[eligible].sum()
            assert kernel.hit_sum_wa[hit_index] == wa[eligible].sum()
            order_sensitive |= sum(w[eligible].tolist()) != w[eligible].sum()
    assert order_sensitive  # the data tells summation orders apart
    before_w = kernel.hit_sum_w.copy()
    kernel._refresh_masses(np.array([], dtype=np.int64))  # a round that filled HITs only
    assert np.array_equal(kernel.hit_sum_w, before_w)


# ---------------------------------------------------------------------------
# Generative templates
# ---------------------------------------------------------------------------


def _per_row_tables(rows, hits, row_hits):
    """The generative tables built one plan row at a time (the reference)."""
    dists = [
        feature.answer_distribution(item, hits[hit_index].combined_generative)
        for (_, feature, item, _), hit_index in zip(rows, row_hits)
    ]
    n = len(rows)
    lmax = max(1, max(len(dist) for dist in dists))
    omax = max(1, max(len(row[3]) for row in rows))
    lab = np.empty((n, lmax), dtype=object)
    cum = np.full((n, lmax), np.inf, dtype=float)
    opt = np.empty((n, omax), dtype=object)
    totals = []
    for index, (dist, row) in enumerate(zip(dists, rows)):
        running = 0.0
        for position, (label, weight) in enumerate(dist.items()):
            running += weight
            lab[index, position] = label
            cum[index, position] = running
        totals.append(running)
        for position, option in enumerate(row[3]):
            opt[index, position] = option
    return {
        "lab_pad": lab,
        "cum_pad": cum,
        "opt_pad": opt,
        "total_arr": np.array(totals),
        "n_dist_arr": np.array([len(dist) for dist in dists]),
        "unknown_idx_arr": np.array(
            [next((p for p, label in enumerate(d) if label is UNKNOWN), -1) for d in dists]
        ),
        "n_opt_arr": np.array([len(row[3]) for row in rows]),
        "first_opt_arr": np.array(
            [row[3][0] if row[3] else "spam" for row in rows], dtype=object
        ),
        "has_unknown_arr": np.array([any(o is UNKNOWN for o in row[3]) for row in rows]),
    }


def test_templated_generative_tables_equal_per_row_tables():
    truth = _truth()
    manager = TaskManager(SimulatedMarketplace(truth, seed=5))
    single = [[_hair(item)] for item in ITEMS[:12]] + [[_tone(item)] for item in ITEMS[:6]]
    combined = [[_hair(item), _tone(item)] for item in ITEMS[12:]]
    hits = manager.build_hits(single, batch_size=3, assignments=1, label="s")
    hits += manager.build_hits(combined, batch_size=2, assignments=1, label="c")
    assert {hit.combined_generative for hit in hits} == {False, True}
    plan = _GenerativePlan(len(hits))
    row_hits: list[int] = []
    for index, hit in enumerate(hits):
        for payload in hit.payloads:
            before = plan.counts[index]
            plan.add(payload, truth, index)
            row_hits += [index] * (plan.counts[index] - before)
    rows = list(plan.rows)
    plan.finalize_with_hits(np, hits, row_hits)

    templates = plan.template_arr
    assert len(rows) == len(templates) == 12 + 6 + 2 * 12
    assert plan.lab_pad.shape[0] < len(rows)  # rows really share templates
    assert plan.qid_arr.tolist() == [row[0] for row in rows]
    for name, expected in _per_row_tables(rows, hits, row_hits).items():
        gathered = getattr(plan, name)[templates]
        assert gathered.shape == expected.shape, name
        assert gathered.tolist() == expected.tolist(), name


# ---------------------------------------------------------------------------
# Answer dicts
# ---------------------------------------------------------------------------


def test_store_rows_keeps_each_lanes_row_order():
    counts = np.array([3, 0, 5, 1, 0, 4])
    starts = np.array([10, 0, 2, 30, 7, 40])
    lane_of_row, rows = _lane_rows(np, starts, counts)
    assert rows.tolist() == [
        row for start, count in zip(starts, counts) for row in range(start, start + count)
    ]
    qids = np.array([f"q{row % 7}" for row in rows.tolist()], dtype=object)
    values = rows % 3 == 0
    lanes = SimpleNamespace(_np=np, dicts=[{"earlier kind": lane} for lane in range(6)])
    _store_rows(lanes, lane_of_row, qids, values)
    expected = [{"earlier kind": lane} for lane in range(6)]
    for lane, qid, value in zip(lane_of_row.tolist(), qids.tolist(), values.tolist()):
        expected[lane][qid] = value
    assert [list(d.items()) for d in lanes.dicts] == [list(d.items()) for d in expected]


def test_dispatched_answers_keep_per_kind_row_order():
    """HITs carrying two payload kinds: every assignment's answers list the
    first kind's rows, then the second's, each in payload order."""
    truth = _truth()
    market = SimulatedMarketplace(truth, seed=9)
    manager = TaskManager(market)
    units = [
        [FilterPayload("keep", (FilterQuestion(item),)), _hair(item)] for item in ITEMS
    ]
    hits = manager.build_hits(units, batch_size=4, assignments=5, label="m")
    expected = {
        hit.hit_id: [
            filter_qid("keep", q.item)
            for p in hit.payloads
            if isinstance(p, FilterPayload)
            for q in p.questions
        ]
        + [
            generative_qid("hair", q.item, "value")
            for p in hit.payloads
            if isinstance(p, GenerativePayload)
            for q in p.questions
        ]
        for hit in hits
    }
    with VECTOR.forced(True):
        completed = market.post_hit_group(hits, group_id="g")
    assert len(completed) == len(hits) * 5
    assert [a.assignment_id for a in completed] == [
        f"asn-{n:06d}" for n in range(1, len(completed) + 1)
    ]
    for assignment in completed:
        assert type(assignment) is Assignment
        assert assignment.duration > 0
        assert list(assignment.answers) == expected[assignment.hit_id]
