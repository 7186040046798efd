"""Statistical equivalence of the REPRO_VECTOR dispatch kernel.

The numpy kernel (:mod:`repro.crowd.vector`) cannot replay the scalar
``random.Random`` draw stream — it is a *second* determinism domain pinned
by its own golden trace (``tests/test_determinism_trace.py``). What it
*must* share with the scalar path is the marketplace's distributional
behaviour. This module pins that contract across a panel of seeds:

* **assignment counts** — a fully-completing group fills exactly the same
  slots (per HIT and in total) under either dispatcher;
* **per-worker load** — the Zipfian pick-up skew produces the same
  distinct-worker and max-load statistics within tolerance;
* **latency quantiles** — accept and submit latency medians/q90s agree
  within tolerance;
* **run-to-run bit reproducibility** — the vector path, run twice with the
  same seed, emits identical :class:`~repro.hits.hit.Assignment` tuples,
  answers included.

Tolerances are calibrated against a 2000-seed independent Monte-Carlo
referee of the worker-selection process (both implementations sit within
~2σ of it); the residual gap between the two paths is micro-dynamics
noise, not bias, so load statistics get 10% and latency quantiles 15%.
Everything here skips without numpy (the ``[vector]`` extra).
"""

from __future__ import annotations

from statistics import mean

import pytest

from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.hits.hit import FilterPayload, FilterQuestion
from repro.hits.manager import BatchOutcome, TaskManager
from repro.util.toggles import VECTOR

if not VECTOR.available():
    pytest.skip(
        "numpy not installed; REPRO_VECTOR kernel inactive", allow_module_level=True
    )

SEEDS = range(100, 148)  # 48 seeds, disjoint from the golden-trace seeds
N_ITEMS = 40
BATCH_SIZE = 5
ASSIGNMENTS = 5  # 8 HITs x 5 slots = 40 assignments per group


def _post_group(seed: int, vector_on: bool):
    """Post one filter group and return (market, completed assignments)."""
    items = [f"img://item/{i}" for i in range(N_ITEMS)]
    truth = GroundTruth()
    truth.add_filter_task("keep", {item: i % 3 != 0 for i, item in enumerate(items)})
    market = SimulatedMarketplace(truth, seed=seed)
    manager = TaskManager(market)
    units = [[FilterPayload("keep", (FilterQuestion(item),))] for item in items]
    hits = manager.build_hits(
        units, batch_size=BATCH_SIZE, assignments=ASSIGNMENTS, label="t"
    )
    with VECTOR.forced(vector_on):
        completed = market.post_hit_group(hits, group_id="g")
    return market, completed


def _load_stats(assignments):
    counts: dict[str, int] = {}
    for assignment in assignments:
        counts[assignment.worker_id] = counts.get(assignment.worker_id, 0) + 1
    return len(counts), max(counts.values())


@pytest.fixture(scope="module")
def panel():
    """(scalar, vector) completed-assignment lists for every panel seed."""
    runs = []
    for seed in SEEDS:
        _, scalar = _post_group(seed, vector_on=False)
        _, vectorized = _post_group(seed, vector_on=True)
        runs.append((scalar, vectorized))
    return runs


def test_assignment_counts_match_scalar(panel):
    """An amply-deadlined group fills every slot under both dispatchers, so
    the totals and the per-HIT counts are *equal*, not merely close."""
    expected_total = (N_ITEMS // BATCH_SIZE) * ASSIGNMENTS
    for scalar, vectorized in panel:
        assert len(scalar) == expected_total
        assert len(vectorized) == expected_total

        def per_hit(assignments):
            counts: dict[str, int] = {}
            for a in assignments:
                counts[a.hit_id] = counts.get(a.hit_id, 0) + 1
            return counts

        assert per_hit(scalar) == per_hit(vectorized)


def test_no_worker_doubles_up_within_a_hit(panel):
    """The one-assignment-per-worker-per-HIT marketplace rule holds in the
    vector domain too (the kernel's exclusion matrix)."""
    for _, vectorized in panel:
        seen = set()
        for a in vectorized:
            key = (a.hit_id, a.worker_id)
            assert key not in seen
            seen.add(key)


def test_worker_load_statistically_equivalent(panel):
    """Distinct-worker and max-load panel means agree within 10%."""
    scalar_distinct, scalar_max, vector_distinct, vector_max = [], [], [], []
    for scalar, vectorized in panel:
        d, m = _load_stats(scalar)
        scalar_distinct.append(d)
        scalar_max.append(m)
        d, m = _load_stats(vectorized)
        vector_distinct.append(d)
        vector_max.append(m)
    assert mean(vector_distinct) == pytest.approx(mean(scalar_distinct), rel=0.10)
    # Max load is the noisiest statistic of the panel (it is an extreme
    # value); the 2000-seed referee puts the true gap near 4%, so 15%
    # bounds bias without flaking on panel noise.
    assert mean(vector_max) == pytest.approx(mean(scalar_max), rel=0.15)


def test_latency_quantiles_statistically_equivalent(panel):
    """Accept/submit q50 and q90 panel means agree within 15%."""
    for kind in ("accept", "submit"):
        scalar_qs, vector_qs = [], []
        for scalar, vectorized in panel:
            scalar_qs.append(
                BatchOutcome(assignments=list(scalar)).latency_quantiles(kind=kind)
            )
            vector_qs.append(
                BatchOutcome(assignments=list(vectorized)).latency_quantiles(kind=kind)
            )
        for position in (0, 1):  # q50, q90
            scalar_mean = mean(qs[position] for qs in scalar_qs)
            vector_mean = mean(qs[position] for qs in vector_qs)
            assert vector_mean == pytest.approx(scalar_mean, rel=0.15), (
                kind,
                position,
            )


def test_answer_distribution_statistically_equivalent(panel):
    """The yes-vote fraction over all filter answers agrees within 10% —
    the kernel's batched behaviour model draws from the same marginals as
    the scalar per-worker model."""

    def yes_fraction(runs):
        yes = total = 0
        for assignments in runs:
            for assignment in assignments:
                for value in assignment.answers.values():
                    total += 1
                    yes += bool(value)
        return yes / total

    scalar_yes = yes_fraction(s for s, _ in panel)
    vector_yes = yes_fraction(v for _, v in panel)
    assert vector_yes == pytest.approx(scalar_yes, rel=0.10)


def test_vector_run_to_run_bit_reproducible():
    """Same seed, two runs: identical Assignment tuples, answers included."""
    for seed in (101, 107):
        _, first = _post_group(seed, vector_on=True)
        _, second = _post_group(seed, vector_on=True)
        assert first == second


def test_vector_stats_counters_consistent():
    """Marketplace counters stay self-consistent in the vector domain:
    every consideration is an acceptance or a refusal, and completions
    match the harvested assignment list."""
    market, completed = _post_group(111, vector_on=True)
    stats = market.stats
    assert stats.assignments_completed == len(completed)
    assert stats.considerations == stats.refusals + stats.assignments_completed
    assert sum(stats.worker_assignment_counts.values()) == len(completed)
