"""The Qurk query engine: plans, operators, the executor, and facade.

The public entry point is :class:`~repro.core.engine.Qurk`: register tables,
define tasks in the TASK DSL, and execute SELECT queries whose filters,
joins, and sorts run on a crowd platform. Every query runs on the
event-driven pipelined scheduler (:mod:`repro.core.scheduler`) over the
operator bodies in :mod:`repro.core.executor`. On platforms that support
overlapping HIT groups its postings overlap in virtual time; on blocking
platforms they run one after another — identical results, different
latency. Plans pass the static rewriter plus, by default, the cost-based
adaptive re-optimizer (:mod:`repro.core.adaptive`, ``REPRO_ADAPT=0`` to
disable); see docs/ARCHITECTURE.md.
"""

from repro.core.adaptive import AdaptiveState, ReplanEvent, SelectivityBook
from repro.core.batch_tuner import BatchTuner, ProbeResult
from repro.core.budget import BudgetPlan, PreflightReport, allocate_budget, plan_preflight
from repro.core.context import ExecutionConfig, PipelineStats, QueryContext
from repro.core.cost_model import (
    OperatorCost,
    PlanCostEstimate,
    estimate_plan_cost,
    operator_estimates,
)
from repro.core.engine import QueryResult, Qurk
from repro.core.session import EngineSession, SessionQuery, SessionResult, SessionStats
from repro.core.plan import (
    AdaptiveFilterNode,
    ComputedFilterNode,
    CrowdPredicateNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.core.planner import build_plan
from repro.core.optimizer import optimize

__all__ = [
    "AdaptiveFilterNode",
    "AdaptiveState",
    "BatchTuner",
    "BudgetPlan",
    "ComputedFilterNode",
    "CrowdPredicateNode",
    "EngineSession",
    "ExecutionConfig",
    "JoinNode",
    "LimitNode",
    "OperatorCost",
    "PipelineStats",
    "PlanCostEstimate",
    "PlanNode",
    "PreflightReport",
    "ProbeResult",
    "ProjectNode",
    "QueryContext",
    "QueryResult",
    "Qurk",
    "ReplanEvent",
    "ScanNode",
    "SelectivityBook",
    "SessionQuery",
    "SessionResult",
    "SessionStats",
    "SortNode",
    "allocate_budget",
    "build_plan",
    "estimate_plan_cost",
    "operator_estimates",
    "optimize",
    "plan_preflight",
]
