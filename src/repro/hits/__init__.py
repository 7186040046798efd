"""HIT modelling: payloads, pricing, HTML compilation, caching, batching.

A :class:`~repro.hits.hit.HIT` bundles one or more *payloads* (machine-
readable question specs) plus compiled HTML. Operators build single-unit
payloads; the :class:`~repro.hits.manager.TaskManager` applies the paper's
two batching forms — *merging* (several tuples, one task) and *combining*
(several tasks, one tuple) — groups HITs (§2.6), prices them, and dispatches
them to a crowd platform.
"""

from repro.hits.cache import TaskCache
from repro.hits.compiler import HITCompiler
from repro.hits.hit import (
    HIT,
    Assignment,
    CompareGroup,
    ComparePayload,
    FilterPayload,
    FilterQuestion,
    GenerativeFieldSpec,
    GenerativePayload,
    GenerativeQuestion,
    JoinGridPayload,
    JoinPair,
    JoinPairsPayload,
    Payload,
    PickBestPayload,
    RatePayload,
    RateQuestion,
    Vote,
    compare_pairs,
    compare_qid,
    join_qid,
)
from repro.hits.manager import BatchOutcome, PendingBatch, TaskManager
from repro.hits.pricing import CostLedger, PricingModel
from repro.hits.resilience import (
    CircuitBreaker,
    DegradationSummary,
    ResilienceState,
    RetryPolicy,
    build_resilience,
)
from repro.hits.vote_columns import VoteColumns, VotesView

__all__ = [
    "HIT",
    "Assignment",
    "BatchOutcome",
    "CircuitBreaker",
    "CompareGroup",
    "ComparePayload",
    "CostLedger",
    "DegradationSummary",
    "FilterPayload",
    "FilterQuestion",
    "GenerativeFieldSpec",
    "GenerativePayload",
    "GenerativeQuestion",
    "HITCompiler",
    "JoinGridPayload",
    "JoinPair",
    "JoinPairsPayload",
    "Payload",
    "PickBestPayload",
    "PricingModel",
    "RatePayload",
    "RateQuestion",
    "ResilienceState",
    "RetryPolicy",
    "TaskCache",
    "PendingBatch",
    "TaskManager",
    "Vote",
    "VoteColumns",
    "VotesView",
    "build_resilience",
    "compare_pairs",
    "compare_qid",
    "join_qid",
]
