"""Prediction-quality metrics used throughout the paper.

The paper evaluates predicted runtimes with three metrics (Section III-C):

* **R^2** — coefficient of determination, ``1 - SS_res / SS_tot``;
* **MARE** — Mean Absolute Relative Error, ``mean(|pred - true| / |true|)``;
* **MSRE** — Mean Squared Relative Error, ``mean(((pred - true)/true)^2)``.

Relative metrics are preferred "to improve the comparability of our results
across all experimental settings" (runtimes differ by three orders of
magnitude between SM and XL).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_same_length

__all__ = [
    "r2_score",
    "relative_errors",
    "mare",
    "msre",
    "PredictionMetrics",
    "score_predictions",
]


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination ``1 - SS_res / SS_tot``.

    Matches the convention the paper (and scikit-learn) uses: a model can
    score arbitrarily negative, and a constant ``y_true`` gives 1.0 for a
    perfect prediction and ``-inf`` otherwise (degenerate denominator).
    """
    yt, yp = check_same_length(y_true, y_pred, "y_true", "y_pred")
    ss_res = float(np.sum((yt - yp) ** 2))
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else float("-inf")
    return 1.0 - ss_res / ss_tot


def relative_errors(y_true, y_pred) -> np.ndarray:
    """Per-sample relative errors ``|pred - true| / |true|``.

    Raises
    ------
    ValueError
        If any true value is zero (relative error undefined).
    """
    yt, yp = check_same_length(y_true, y_pred, "y_true", "y_pred")
    if np.any(yt == 0):
        raise ValueError("relative errors undefined for zero true values")
    return np.abs(yp - yt) / np.abs(yt)


def mare(y_true, y_pred) -> float:
    """Mean Absolute Relative Error."""
    return float(relative_errors(y_true, y_pred).mean())


def msre(y_true, y_pred) -> float:
    """Mean Squared Relative Error."""
    return float((relative_errors(y_true, y_pred) ** 2).mean())


@dataclass(frozen=True)
class PredictionMetrics:
    """The paper's metric triple for one prediction set."""

    r2: float
    mare: float
    msre: float
    n: int

    def __str__(self) -> str:
        return (
            f"R2={self.r2:.4f} MARE={self.mare:.4f} "
            f"MSRE={self.msre:.4f} (n={self.n})"
        )


def score_predictions(y_true, y_pred) -> PredictionMetrics:
    """Compute the full metric triple for a prediction set."""
    yt, yp = check_same_length(y_true, y_pred, "y_true", "y_pred")
    return PredictionMetrics(
        r2=r2_score(yt, yp),
        mare=mare(yt, yp),
        msre=msre(yt, yp),
        n=int(yt.shape[0]),
    )
