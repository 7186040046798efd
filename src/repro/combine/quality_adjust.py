"""QualityAdjust: the Ipeirotis et al. quality-management combiner [6].

Runs Dawid-Skene EM (worker confusion + bias estimation), then makes
cost-sensitive decisions. For the paper's join pairs, false negatives are
penalised twice as heavily as false positives (§3.3.2): a missing true match
is worse than an extra candidate pair.

Also exposes per-worker quality scores — the expected misclassification cost
of a worker's (bias-corrected) soft labels, normalised so that a perfect
worker scores 1.0 and a worker indistinguishable from the prior scores 0.0.
Spam workers land near zero regardless of whether they answer randomly or
with a constant pattern, which simple accuracy cannot do; §6 suggests using
these scores to ban bad workers.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from repro.combine.base import Combiner
from repro.combine.dawid_skene import DawidSkeneResult, dawid_skene
from repro.hits.vote_columns import VoteColumns


class QualityAdjust(Combiner):
    """EM-based combiner with asymmetric decision costs.

    ``false_negative_cost`` applies when the label space is boolean: deciding
    ``False`` when the truth is ``True`` costs this much (default 2.0, per
    the paper), any other confusion costs 1.0. For non-boolean label spaces
    a uniform 0/1 cost is used, i.e. MAP decisions.
    """

    def __init__(
        self,
        iterations: int = 5,
        false_negative_cost: float = 2.0,
        smoothing: float = 0.01,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.false_negative_cost = false_negative_cost
        self.smoothing = smoothing
        self.last_result: DawidSkeneResult | None = None
        self.last_vote_counts: dict[str, int] = {}

    def fit(self, corpus: VoteColumns) -> DawidSkeneResult:
        """Run the EM and keep the fitted model for inspection."""
        self.last_result = dawid_skene(
            corpus, iterations=self.iterations, smoothing=self.smoothing
        )
        self.last_vote_counts = dict(Counter(corpus.worker))
        return self.last_result

    def combine(self, corpus: VoteColumns) -> dict[str, object]:
        result = self.fit(corpus)
        is_boolean = set(result.labels) <= {True, False}
        decisions: dict[str, object] = {}
        for qid, posterior in result.posteriors.items():
            if is_boolean:
                decisions[qid] = self._boolean_decision(posterior)
            else:
                best = max(posterior.values())
                winners = [label for label, p in posterior.items() if p == best]
                decisions[qid] = sorted(winners, key=repr)[0]
        return decisions

    def _boolean_decision(self, posterior: Mapping[object, float]) -> bool:
        p_true = posterior.get(True, 0.0)
        p_false = posterior.get(False, 0.0)
        # Expected cost of answering False = P(truth=True) × FN cost;
        # expected cost of answering True = P(truth=False) × FP cost (1.0).
        cost_if_false = p_true * self.false_negative_cost
        cost_if_true = p_false * 1.0
        return cost_if_false > cost_if_true

    # ------------------------------------------------------------------

    def worker_quality(self) -> dict[str, float]:
        """Per-worker quality in [0, 1] from the last fit.

        Implements the Ipeirotis expected-cost measure: for each label a
        worker emits, form the bias-corrected soft label (posterior over
        truths given the worker said that), take its expected
        misclassification cost, and average weighted by how often the worker
        emits each label. Normalised against the cost of the prior
        distribution itself (the best a content-blind spammer can do).
        """
        result = self.last_result
        if result is None:
            raise RuntimeError("call combine()/fit() before worker_quality()")
        labels = result.labels
        priors = result.priors

        def soft_label_cost(soft: Mapping[object, float]) -> float:
            return sum(
                soft[a] * soft[b]
                for a in labels
                for b in labels
                if a is not b and a != b
            )

        baseline = soft_label_cost(priors)
        qualities: dict[str, float] = {}
        for worker, confusion in result.worker_confusion.items():
            expected_cost = 0.0
            for emitted in labels:
                # P(worker emits this label) and the soft truth given it.
                p_emit = sum(
                    priors[true] * confusion[true][emitted] for true in labels
                )
                if p_emit <= 0.0:
                    continue
                soft = {
                    true: priors[true] * confusion[true][emitted] / p_emit
                    for true in labels
                }
                expected_cost += p_emit * soft_label_cost(soft)
            if baseline <= 0.0:
                qualities[worker] = 1.0
            else:
                qualities[worker] = max(0.0, min(1.0, 1.0 - expected_cost / baseline))
        return qualities

    def balanced_worker_accuracy(self) -> dict[str, float]:
        """Per-worker accuracy averaged *uniformly over classes*.

        On heavily class-imbalanced corpora (a join has 1/N positives) raw
        accuracy and the expected-cost score both reward constant-"no"
        spammers. The class-balanced mean of the confusion diagonal does
        not: an always-no worker scores ≈ 0.5 (perfect on negatives, zero
        on positives), a random worker ≈ 0.5, an honest worker well above.
        """
        result = self.last_result
        if result is None:
            raise RuntimeError("call combine()/fit() before balanced accuracy")
        scores: dict[str, float] = {}
        for worker, confusion in result.worker_confusion.items():
            diagonal = [confusion[label].get(label, 0.0) for label in result.labels]
            scores[worker] = sum(diagonal) / len(diagonal)
        return scores

    def identify_spammers(
        self, threshold: float = 0.25, min_votes: int = 1
    ) -> list[str]:
        """Workers whose quality score falls below ``threshold``.

        ``min_votes`` guards against accusing low-volume workers: with only
        a handful of votes the EM cannot distinguish an unlucky honest
        worker from a spammer, so their confusion rows (and hence quality
        scores) are uninformative.
        """
        counts = getattr(self, "last_vote_counts", {})
        return sorted(
            worker
            for worker, quality in self.worker_quality().items()
            if quality < threshold and counts.get(worker, 0) >= min_votes
        )
