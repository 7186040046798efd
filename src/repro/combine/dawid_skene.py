"""Dawid & Skene (1979): EM estimation of true labels and worker error rates.

Given a corpus of categorical votes — question × worker × label — the
algorithm alternates:

* **M-step**: from current soft labels, estimate class priors and each
  worker's confusion matrix π_w[j][k] = P(worker answers k | truth is j);
* **E-step**: recompute each question's soft label from the priors and the
  confusion matrices of the workers who answered it.

This is the foundation the paper's QualityAdjust combiner [Ipeirotis et al.
2010] builds on; it identifies spammers (flat confusion rows) and corrects
for per-worker bias. The paper runs five iterations (§3.3.2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import CombinerError
from repro.hits.vote_columns import VoteColumns


@dataclass
class DawidSkeneResult:
    """Everything the EM run estimated."""

    labels: list[object]
    posteriors: dict[str, dict[object, float]]
    priors: dict[object, float]
    worker_confusion: dict[str, dict[object, dict[object, float]]]
    iterations: int

    def hard_labels(self) -> dict[str, object]:
        """Maximum-a-posteriori label per question (ties break by repr)."""
        result = {}
        for qid, posterior in self.posteriors.items():
            best = max(posterior.values())
            winners = [label for label, p in posterior.items() if p == best]
            result[qid] = sorted(winners, key=repr)[0]
        return result

    def worker_accuracy_estimate(self, worker_id: str) -> float:
        """Estimated probability the worker answers correctly, averaged over
        classes weighted by the priors."""
        confusion = self.worker_confusion.get(worker_id)
        if confusion is None:
            raise KeyError(worker_id)
        return sum(
            self.priors[label] * confusion[label].get(label, 0.0)
            for label in self.labels
        )


def dawid_skene(
    corpus: VoteColumns,
    iterations: int = 5,
    smoothing: float = 0.01,
) -> DawidSkeneResult:
    """Run EM over a categorical vote corpus.

    ``smoothing`` is a Laplace pseudo-count keeping confusion entries off
    zero (a single surprising vote must not produce -inf likelihoods).
    Questions are visited in the corpus's table order and each question's
    votes in vote order, so every float sum is reproducible.
    """
    if not len(corpus):
        raise CombinerError("cannot run Dawid-Skene on an empty corpus")
    if iterations < 1:
        raise CombinerError("need at least one EM iteration")

    groups = corpus.grouped()
    labels = sorted(
        {value for _, values in groups.values() for value in values}, key=repr
    )
    if not labels:
        raise CombinerError("corpus contains no votes")
    workers = sorted({worker for workers, _ in groups.values() for worker in workers})
    question_ids = list(groups)
    answered = {qid: list(zip(*groups[qid])) for qid in question_ids}

    # Initialise posteriors with per-question vote fractions (majority soft).
    posteriors: dict[str, dict[object, float]] = {}
    for qid in question_ids:
        counts = Counter(groups[qid][1])
        total = sum(counts.values())
        if total == 0:
            raise CombinerError(f"question {qid!r} has no votes")
        posteriors[qid] = {label: counts.get(label, 0) / total for label in labels}

    priors: dict[object, float] = {}
    confusion: dict[str, dict[object, dict[object, float]]] = {}

    for _ in range(iterations):
        # ---- M-step -----------------------------------------------------
        priors = {
            label: sum(posteriors[qid][label] for qid in question_ids)
            / len(question_ids)
            for label in labels
        }
        confusion = {}
        for worker in workers:
            confusion[worker] = {
                true_label: {answer: smoothing for answer in labels}
                for true_label in labels
            }
        for qid in question_ids:
            posterior = posteriors[qid]
            for worker, value in answered[qid]:
                rows = confusion[worker]
                for true_label in labels:
                    rows[true_label][value] += posterior[true_label]
        for worker in workers:
            for true_label in labels:
                row = confusion[worker][true_label]
                total = sum(row.values())
                for answer in labels:
                    row[answer] /= total

        # ---- E-step -----------------------------------------------------
        for qid in question_ids:
            scores: dict[object, float] = {}
            for true_label in labels:
                likelihood = priors[true_label]
                for worker, value in answered[qid]:
                    likelihood *= confusion[worker][true_label][value]
                scores[true_label] = likelihood
            total = sum(scores.values())
            if total <= 0.0:
                # Degenerate corner: fall back to the priors.
                posteriors[qid] = dict(priors)
            else:
                posteriors[qid] = {
                    label: score / total for label, score in scores.items()
                }

    return DawidSkeneResult(
        labels=labels,
        posteriors=posteriors,
        priors=priors,
        worker_confusion=confusion,
        iterations=iterations,
    )
