"""Shared fixtures: small datasets, marketplaces, and engines."""

from __future__ import annotations

import pytest

from repro.core.context import ExecutionConfig, QueryContext
from repro.crowd import GroundTruth, SimulatedMarketplace
from repro.hits import TaskManager
from repro.language.parser import parse_statements
from repro.relational.catalog import Catalog
from repro.tasks import task_from_definition

# Explain a failing paper check (plain asserts in a helper module) in full.
pytest.register_assert_rewrite("paper_checks")


@pytest.fixture
def binary_filter_truth() -> GroundTruth:
    """A filter task where even-numbered items are 'yes'."""
    truth = GroundTruth()
    truth.add_filter_task(
        "isEven", {f"img://item/{i}": i % 2 == 0 for i in range(20)}
    )
    return truth


@pytest.fixture
def simple_rank_truth() -> GroundTruth:
    """A rank task over ten items with crisp latent values."""
    truth = GroundTruth()
    truth.add_rank_task(
        "sizeRank",
        {f"img://item/{i}": float(i) for i in range(10)},
        comparison_ambiguity=0.2,
        rating_ambiguity=0.8,
    )
    return truth


def make_marketplace(truth: GroundTruth, seed: int = 0) -> SimulatedMarketplace:
    """A deterministic marketplace over a truth oracle."""
    return SimulatedMarketplace(truth, seed=seed)


def make_context(
    truth: GroundTruth,
    dsl: str = "",
    seed: int = 0,
    config: ExecutionConfig | None = None,
) -> QueryContext:
    """A query context wired to a fresh simulated marketplace."""
    catalog = Catalog()
    if dsl:
        for statement in parse_statements(dsl):
            catalog.register_task(task_from_definition(statement))
    market = SimulatedMarketplace(truth, seed=seed)
    return QueryContext(
        catalog=catalog,
        manager=TaskManager(market),
        config=config or ExecutionConfig(),
    )
