"""Central-Limit-Theorem aggregation of metrics across experiments.

Section III-C / IV-A: "By applying the Central Limit Theorem across all of
our experiments, we can approximate the generalized capability of the LLM
at this task" — i.e. the grand mean of a per-experiment metric converges to
the model's expected capability, with a standard error shrinking as
``1/sqrt(k)``.  This module computes those aggregates with normal-theory
confidence intervals (cf. Miller 2024, "Adding Error Bars to Evals").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_1d

# scipy.stats is imported where it is used: on top of ``import repro``
# it costs ~65 MB of RSS and ~1 s, which every process importing
# ``repro`` (a shard worker serving predictions, say) would otherwise pay
# for nothing.

__all__ = ["CLTAggregate", "aggregate_metric"]


@dataclass(frozen=True)
class CLTAggregate:
    """Grand mean of a metric across experiments with uncertainty."""

    mean: float
    std: float
    sem: float
    n: int
    ci_low: float
    ci_high: float
    confidence: float

    def __str__(self) -> str:
        return (
            f"{self.mean:.4f} +/- {self.sem:.4f} "
            f"(std={self.std:.4f}, n={self.n}, "
            f"{100 * self.confidence:.0f}% CI [{self.ci_low:.4f}, {self.ci_high:.4f}])"
        )


def aggregate_metric(values, confidence: float = 0.95) -> CLTAggregate:
    """Aggregate per-experiment metric values into a CLT estimate.

    Parameters
    ----------
    values:
        One metric value per experiment.  Non-finite values are rejected —
        callers must decide explicitly how to treat degenerate experiments.
    confidence:
        Two-sided confidence level for the interval (t-distribution for
        small samples).
    """
    arr = check_1d(values, "values")
    if arr.size == 0:
        raise ValueError("cannot aggregate zero experiments")
    if not np.all(np.isfinite(arr)):
        raise ValueError("metric values must be finite for CLT aggregation")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    n = int(arr.size)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    sem = std / np.sqrt(n) if n > 1 else 0.0
    if n > 1 and sem > 0:
        from scipy import stats

        tcrit = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
        half = tcrit * sem
    else:
        half = 0.0
    return CLTAggregate(
        mean=mean,
        std=std,
        sem=sem,
        n=n,
        ci_low=mean - half,
        ci_high=mean + half,
        confidence=confidence,
    )
