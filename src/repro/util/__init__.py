"""Shared utilities: seeded randomness, descriptive statistics, text helpers,
and plain-text table rendering used by the experiment harness."""

from repro.util.rng import RandomSource, child_seed, spawn_rng
from repro.util.stats import (
    Summary,
    mean,
    percentile,
    stddev,
    summarize,
)
from repro.util.tables import format_table
from repro.util.text import lowercase_single_space, slugify

__all__ = [
    "RandomSource",
    "Summary",
    "child_seed",
    "format_table",
    "lowercase_single_space",
    "mean",
    "percentile",
    "slugify",
    "spawn_rng",
    "stddev",
    "summarize",
]
