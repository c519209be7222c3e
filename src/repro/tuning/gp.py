"""Gaussian-process regression from scratch (the BO surrogate).

A standard zero-mean GP with a squared-exponential (RBF) kernel plus a
noise nugget, fitted by Cholesky factorization.  Inputs are expected
pre-normalized (the BO tuner feeds standardized ordinal features); targets
are standardized internally so the unit-variance kernel priors are
sensible regardless of runtime magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelNotFittedError, TuningError

# scipy.linalg is imported where it is used (see repro.analysis.clt).

__all__ = ["GPParams", "GaussianProcess"]


@dataclass(frozen=True)
class GPParams:
    """Kernel hyperparameters."""

    lengthscale: float = 1.0
    signal_variance: float = 1.0
    noise_variance: float = 1e-4

    def __post_init__(self):
        if self.lengthscale <= 0:
            raise TuningError(f"lengthscale must be > 0, got {self.lengthscale}")
        if self.signal_variance <= 0:
            raise TuningError(
                f"signal_variance must be > 0, got {self.signal_variance}"
            )
        if self.noise_variance < 0:
            raise TuningError(
                f"noise_variance must be >= 0, got {self.noise_variance}"
            )


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, vectorized."""
    a2 = np.sum(a * a, axis=1)[:, None]
    b2 = np.sum(b * b, axis=1)[None, :]
    return np.maximum(a2 + b2 - 2.0 * (a @ b.T), 0.0)


class GaussianProcess:
    """Exact GP regression with an RBF kernel."""

    def __init__(self, params: GPParams | None = None):
        self.params = params or GPParams()
        self._x: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        p = self.params
        d2 = _sq_dists(a, b)
        return p.signal_variance * np.exp(-0.5 * d2 / (p.lengthscale**2))

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit on ``(n, d)`` inputs and ``(n,)`` targets."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise TuningError(
                f"need x (n, d) and y (n,), got {x.shape} and {y.shape}"
            )
        if x.shape[0] < 1:
            raise TuningError("cannot fit a GP on zero observations")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std
        k = self._kernel(x, x)
        k[np.diag_indices_from(k)] += self.params.noise_variance + 1e-10
        from scipy import linalg

        self._chol = linalg.cholesky(k, lower=True)
        self._alpha = linalg.cho_solve((self._chol, True), z)
        self._x = x
        return self

    def predict(
        self, x_new: np.ndarray, return_std: bool = False
    ):
        """Posterior mean (and optionally std) at new inputs."""
        if self._x is None:
            raise ModelNotFittedError("GaussianProcess used before fit()")
        x_new = np.asarray(x_new, dtype=float)
        k_star = self._kernel(x_new, self._x)
        mean = k_star @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        from scipy import linalg

        v = linalg.solve_triangular(self._chol, k_star.T, lower=True)
        var = self.params.signal_variance - np.sum(v * v, axis=0)
        var = np.maximum(var, 1e-12)
        return mean, np.sqrt(var) * self._y_std

    def log_marginal_likelihood(self) -> float:
        """Log evidence of the fitted data (model-selection diagnostic)."""
        if self._chol is None or self._alpha is None or self._x is None:
            raise ModelNotFittedError("GaussianProcess used before fit()")
        n = self._x.shape[0]
        z_alpha = self._alpha
        # z was standardized; reconstruct z from alpha: K alpha = z.
        k = self._kernel(self._x, self._x)
        k[np.diag_indices_from(k)] += self.params.noise_variance + 1e-10
        z = k @ z_alpha
        return float(
            -0.5 * z @ z_alpha
            - np.sum(np.log(np.diag(self._chol)))
            - 0.5 * n * np.log(2 * np.pi)
        )
