"""Evaluation metrics the paper uses to judge sorts and joins.

* Kendall's τ-b (§4.2) — rank correlation between orderings, tie-aware.
* Fleiss' κ (§3.2) — inter-rater agreement on categorical labels, used to
  detect ambiguous join features.
* Modified κ (§4.2.3 footnote) — Fleiss' κ without empirical-prior
  compensation, used on sort-comparison votes to detect unsortable data.
* Sampling estimators — κ/τ estimated from small item samples (Table 4,
  Figure 6 error bars).
* Worker accuracy regression (§3.3.3) — accuracy vs tasks completed.
"""

from repro.metrics.agreement import (
    comparison_agreement_table,
    comparison_kappa,
    feature_kappa,
    mean_pair_agreement,
    vote_count_table,
    worker_accuracies,
)
from repro.metrics.fleiss import fleiss_kappa, modified_kappa
from repro.metrics.kendall import kendall_tau_b, kendall_tau_from_orders
from repro.metrics.regression import RegressionResult, accuracy_regression
from repro.metrics.sampling import SampledMetric, estimate_on_samples

__all__ = [
    "RegressionResult",
    "SampledMetric",
    "accuracy_regression",
    "comparison_agreement_table",
    "comparison_kappa",
    "estimate_on_samples",
    "feature_kappa",
    "fleiss_kappa",
    "kendall_tau_b",
    "kendall_tau_from_orders",
    "mean_pair_agreement",
    "modified_kappa",
    "vote_count_table",
    "worker_accuracies",
]
