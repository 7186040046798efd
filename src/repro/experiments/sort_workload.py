"""Scalable sort workloads: planted-cycle vote corpora and LIMIT sorts.

The paper's sort experiments stop at 40–50 squares; the scale-out sort
engine targets thousands. This module grows the squares dataset (§4.2.1)
into two reusable workloads shared by ``benchmarks/bench_sort_scale.py``,
``scripts/profile_hotpath.py --check``, and ``tests/test_sort_scale.py``:

* :func:`comparison_corpus` — a synthetic comparison-vote corpus over
  N = 40·scale squares with *planted cycles*: most pairs vote with the
  ground truth at a solid margin, while seeded "ambiguity windows" — short
  runs of near-indistinguishable neighbours, the way crowd confusion
  actually clusters — flip a batch of their internal pairs at the weakest
  margin, knotting the comparison graph into many small low-margin
  strongly connected components that each need several successive cuts.
  Pair coverage is a sparse neighbourhood band plus long-range spokes, the
  shape a budget-capped crowd sort actually buys at large N (full C(N, 2)
  coverage at N=1000 is half a million pairs).
* :func:`limit_sort_setup` — a squares dataset whose rank truth uses
  geometrically spaced latents and near-unambiguous comparisons, so the
  leading items are cleanly separated: the ``ORDER BY rank(...) LIMIT k``
  tournament path and the full-coverage Compare sort must surface the
  *same* leading rows, making the HIT savings directly comparable.
"""

from __future__ import annotations

from dataclasses import replace

from repro.crowd.truth import GroundTruth
from repro.datasets.squares import RATING_AMBIGUITY, SORT_TASK, SquaresDataset, squares_dataset
from repro.hits.hit import Vote, compare_qid
from repro.util.rng import RandomSource

SCALES = (1, 5, 25)
"""Bench scales: N = 40, 200, 1000 squares."""

VOTES_PER_PAIR = 5
"""Assignments per comparison question in the synthetic corpus."""


def comparison_corpus(
    n: int,
    seed: int = 0,
    neighbors: int = 16,
    spokes: int = 2,
    window: int = 12,
    window_spacing: int = 25,
    window_flip_rate: float = 0.35,
) -> tuple[list[str], dict[str, list[Vote]]]:
    """(items, corpus) — a sparse comparison corpus with planted cycles.

    Each item is compared with its ``neighbors`` nearest truth-order
    successors (the band where real sorts are ambiguous) plus ``spokes``
    seeded long-range partners. Every ``window_spacing`` ranks, an
    ambiguity window of ``window`` consecutive items flips
    ``window_flip_rate`` of its internal pairs the *wrong* way at the
    minimum 3–2 margin; correct pairs carry a solid 5–0 margin, so flipped
    edges are always the cheapest to cut and cycle breaking has an
    unambiguous victim order. Because a flipped edge never spans two
    windows, every cyclic SCC stays confined to one window — the workload
    has Θ(n / spacing) independent tangles, each needing several
    successive cuts, which is precisely the shape where re-running full
    Tarjan (and re-scanning every edge for victims) per sweep goes
    quadratic while the incremental path stays local. Deterministic in
    ``seed``.
    """
    data = squares_dataset(n=n, seed=seed)
    items = data.items
    rng = RandomSource(seed).child("sort-workload", n)
    pairs: set[tuple[int, int]] = set()
    for i in range(n):
        for step in range(1, neighbors + 1):
            if i + step < n:
                pairs.add((i, i + step))
        for _ in range(spokes):
            j = rng.randint(0, n - 1)
            if j != i:
                pairs.add((min(i, j), max(i, j)))
    flipped_pairs: set[tuple[int, int]] = set()
    start = 0
    while start + 2 <= n:
        stop = min(start + window, n)
        for i in range(start, stop):
            for j in range(i + 1, stop):
                if rng.chance(window_flip_rate):
                    pairs.add((i, j))
                    flipped_pairs.add((i, j))
        start += window_spacing
    corpus: dict[str, list[Vote]] = {}
    for i, j in sorted(pairs):
        smaller, larger = items[i], items[j]
        flipped = (i, j) in flipped_pairs
        winner, loser = (smaller, larger) if flipped else (larger, smaller)
        majority = 3 if flipped else VOTES_PER_PAIR
        qid = compare_qid(SORT_TASK, smaller, larger)
        votes = [
            Vote(f"w{i}-{j}-{v}", winner if v < majority else loser)
            for v in range(VOTES_PER_PAIR)
        ]
        corpus[qid] = votes
    return items, corpus


LIMIT_GROWTH = 1.1
"""Per-rank latent growth in the LIMIT workload — items at either end are
spaced ~4.5% apart on the normalised scale, far above the comparison
noise."""

LIMIT_COMPARISON_AMBIGUITY = 0.02
"""Sharp judgements: the tournament and the full sort must agree on the
leading rows, so adjacent leaders have to be essentially unambiguous."""


def limit_sort_setup(n: int, seed: int = 0) -> SquaresDataset:
    """A squares dataset tuned for the LIMIT tournament workload.

    Same table, task DSL, and true order as :func:`squares_dataset`, but
    the rank truth's latents follow a two-sided geometric curve
    (``LIMIT_GROWTH**i − LIMIT_GROWTH**(n−1−i)``): after normalisation the
    items at *either end* sit ~4.5% apart while the middle compresses
    toward indistinguishability. Combined with
    ``LIMIT_COMPARISON_AMBIGUITY``, pairwise and pick-best judgements
    among the leaders (ASC or DESC) are near-deterministic — exactly the
    regime where ``ORDER BY rank(...) LIMIT k`` should cost O(N·k/b) HITs,
    not a full sort — and the crowded middle keeps the full sort honest.
    """
    data = squares_dataset(n=n, seed=seed)
    truth = GroundTruth()
    latents = {
        ref: LIMIT_GROWTH**i - LIMIT_GROWTH ** (n - 1 - i)
        for i, ref in enumerate(data.true_order)
    }
    truth.add_rank_task(
        SORT_TASK,
        latents,
        comparison_ambiguity=LIMIT_COMPARISON_AMBIGUITY,
        rating_ambiguity=RATING_AMBIGUITY,
    )
    return replace(data, truth=truth)
