"""Reproduction of "Human-powered Sorts and Joins" (Marcus, Wu, Karger,
Madden, Miller — VLDB 2011): the Qurk crowd-powered query engine plus a
simulated Mechanical Turk marketplace to run it against.

Quick start::

    from repro import Qurk, SimulatedMarketplace
    from repro.datasets import squares_dataset

    data = squares_dataset(n=20, seed=7)
    market = SimulatedMarketplace(data.truth, seed=7)
    q = Qurk(platform=market)
    q.register_table(data.table)
    q.define(data.task_dsl)
    result = q.execute(
        "SELECT squares.label FROM squares ORDER BY squareSorter(img)"
    )

See docs/ARCHITECTURE.md for the system inventory (and the pipelined
executor's design), docs/API.md for the facade and configuration
reference, and :mod:`repro.experiments.registry` for the paper artifacts
the reproduction regenerates (``scripts/generate_experiments_md.py``
renders their claims, verdicts and pinned tables as EXPERIMENTS.md).
"""

from repro.combine import MajorityVote, QualityAdjust, dawid_skene, get_combiner
from repro.core import (
    EngineSession,
    ExecutionConfig,
    QueryResult,
    Qurk,
    SessionResult,
    SessionStats,
)
from repro.crowd import (
    GroundTruth,
    LatencyConfig,
    MTurkConnection,
    PoolConfig,
    SimulatedMarketplace,
    TimeOfDay,
    WorkerPool,
)
from repro.errors import (
    BudgetExceededError,
    CatalogError,
    CombinerError,
    ExecutionError,
    HITUncompletedError,
    MarketplaceError,
    ParseError,
    PlanError,
    QurkError,
    SchemaError,
    TaskError,
)
from repro.hits import CostLedger, PricingModel, TaskManager
from repro.joins.batching import JoinInterface
from repro.metrics import fleiss_kappa, kendall_tau_from_orders, modified_kappa
from repro.relational import Catalog, Column, ColumnType, Row, Schema, Table

__version__ = "1.0.0"

__all__ = [
    "BudgetExceededError",
    "Catalog",
    "CatalogError",
    "Column",
    "ColumnType",
    "CombinerError",
    "CostLedger",
    "EngineSession",
    "ExecutionConfig",
    "ExecutionError",
    "GroundTruth",
    "HITUncompletedError",
    "JoinInterface",
    "LatencyConfig",
    "MTurkConnection",
    "MajorityVote",
    "MarketplaceError",
    "ParseError",
    "PlanError",
    "PoolConfig",
    "PricingModel",
    "QualityAdjust",
    "QueryResult",
    "Qurk",
    "QurkError",
    "Row",
    "Schema",
    "SchemaError",
    "SessionResult",
    "SessionStats",
    "SimulatedMarketplace",
    "Table",
    "TaskError",
    "TaskManager",
    "TimeOfDay",
    "WorkerPool",
    "dawid_skene",
    "fleiss_kappa",
    "get_combiner",
    "kendall_tau_from_orders",
    "modified_kappa",
    "__version__",
]
