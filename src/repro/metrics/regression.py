"""Worker accuracy vs volume regression (§3.3.3).

The paper fits accuracy against the number of tasks each worker completed
and finds a *positive* slope with R² = 0.028 (p < .05): volume explains
almost none of the accuracy variance, so heavy workers are not sloppier.

The fit and its t-test are scipy's, imported only when a fit runs, so
``import repro`` loads the standard library alone; scipy comes with the
``[stats]`` extra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import QurkError


@dataclass(frozen=True)
class RegressionResult:
    """Ordinary-least-squares fit summary."""

    slope: float
    intercept: float
    r_squared: float
    p_value: float
    n: int

    def __str__(self) -> str:
        return (
            f"beta={self.slope:+.5f} R^2={self.r_squared:.3f} "
            f"p={self.p_value:.4f} n={self.n}"
        )


def accuracy_regression(
    worker_stats: Mapping[str, tuple[int, float]]
) -> RegressionResult:
    """Fit accuracy ~ tasks_completed over per-worker statistics.

    ``worker_stats`` maps worker id to (tasks completed, accuracy), the
    output of :func:`repro.metrics.agreement.worker_accuracies`. Needs
    scipy (the ``[stats]`` extra); without it this raises
    :class:`~repro.errors.QurkError`.
    """
    points = list(worker_stats.values())
    if len(points) < 3:
        raise QurkError("need at least three workers for a regression")
    x = [float(count) for count, _ in points]
    y = [float(accuracy) for _, accuracy in points]
    if len(set(x)) < 2:
        raise QurkError("all workers completed the same number of tasks")
    try:
        from scipy import stats
    except ImportError as exc:
        raise QurkError(
            "the accuracy regression needs scipy: pip install 'repro-qurk[stats]'"
        ) from exc
    fit = stats.linregress(x, y)
    return RegressionResult(
        slope=float(fit.slope),
        intercept=float(fit.intercept),
        r_squared=float(fit.rvalue) ** 2,
        p_value=float(fit.pvalue),
        n=len(points),
    )
