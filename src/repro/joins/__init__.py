"""Join algorithms and the feature-filtering optimization (§3).

* :mod:`repro.joins.batching` — candidate-pair enumeration and the three
  interfaces' batch shapes: SimpleJoin, NaiveBatch(b), SmartBatch(r×s).
* :mod:`repro.joins.selectivity` — the §3.2 selectivity algebra for
  POSSIBLY feature filters.
* :mod:`repro.joins.feature_filter` — candidate pruning with extracted
  features (UNKNOWN-aware) and the three automatic feature-rejection tests:
  sampled selectivity, leave-one-out error contribution, and Fleiss-κ
  ambiguity.
"""

from repro.joins.batching import (
    JoinInterface,
    all_pairs,
    hit_count_estimate,
    smart_grids,
)
from repro.joins.feature_filter import (
    FeatureDecision,
    FeatureFilterReport,
    evaluate_features,
    filter_candidates,
    leave_one_out,
)
from repro.joins.selectivity import (
    estimate_selectivity,
    feature_selectivity,
    unknown_aware_selectivity,
    unknown_share,
    value_distribution,
)

__all__ = [
    "FeatureDecision",
    "FeatureFilterReport",
    "JoinInterface",
    "all_pairs",
    "estimate_selectivity",
    "evaluate_features",
    "feature_selectivity",
    "filter_candidates",
    "hit_count_estimate",
    "leave_one_out",
    "smart_grids",
    "unknown_aware_selectivity",
    "unknown_share",
]
