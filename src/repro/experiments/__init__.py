"""Experiment harness: one module per paper artifact (tables and figures).

Each ``run_*`` function executes the corresponding experiment against the
simulated marketplace and returns an :class:`~repro.experiments.harness.
ExperimentTable` whose rows mirror the paper's table/figure series.

See :mod:`repro.experiments.registry` for the artifact index: each
artifact's runner, the paper's claim and the reproduction's verdict.
"""

from repro.experiments.harness import ExperimentTable
from repro.experiments.registry import EXPERIMENTS, describe_experiments

__all__ = ["EXPERIMENTS", "ExperimentTable", "describe_experiments"]
