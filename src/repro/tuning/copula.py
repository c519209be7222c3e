"""Gaussian-copula transfer-learning sampler (Randall et al., ICS'23).

The performance data this paper evaluates on was collected for
"Transfer-Learning-Based Autotuning Using Gaussian Copula" [5] — the
technique the introduction cites as reducing autotuning cost using data
from related tasks.  This module implements that substrate:

1. fit empirical marginals for every tunable parameter and the objective
   on *source-task* data, mapped to normal scores;
2. estimate the Gaussian-copula correlation among them;
3. to propose candidates for the *target* task, condition the copula on a
   low objective quantile and sample parameter normal scores from the
   conditional Gaussian, mapping them back through the inverse marginals.

Because the copula captures which parameter combinations co-occur with
fast runtimes — and those relationships transfer across input sizes far
better than absolute runtimes do — a handful of conditional samples lands
near the target optimum without any target evaluations.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from repro.dataset.generate import PerformanceDataset
from repro.dataset.space import ConfigSpace
from repro.errors import TuningError
from repro.tuning.base import Tuner, TuningHistory
from repro.utils.rng import rng_from

# scipy.stats is imported where it is used (see repro.analysis.clt).

__all__ = ["GaussianCopula", "CopulaTransferTuner"]


class _OrdinalMarginal:
    """Empirical marginal of one ordinal column with normal-score maps."""

    def __init__(self, values: np.ndarray, cardinality: int):
        values = np.asarray(values, dtype=np.int64)
        counts = np.bincount(values, minlength=cardinality).astype(float)
        n = counts.sum()
        if n == 0:
            raise TuningError("cannot fit a marginal on zero observations")
        # Laplace smoothing keeps unseen levels reachable.
        counts += 0.5
        n = counts.sum()
        self.probs = counts / n
        self.cum = np.cumsum(self.probs)
        # Midpoint CDF value per level (the normal score of that level).
        mid = self.cum - self.probs / 2.0
        from scipy import stats

        self.z_of_level = stats.norm.ppf(np.clip(mid, 1e-6, 1 - 1e-6))

    def to_z(self, levels: np.ndarray) -> np.ndarray:
        return self.z_of_level[np.asarray(levels, dtype=np.int64)]

    def from_z(self, z: np.ndarray) -> np.ndarray:
        from scipy import stats

        u = stats.norm.cdf(np.asarray(z, dtype=float))
        return np.searchsorted(self.cum, u, side="left").clip(
            0, self.probs.size - 1
        )


class GaussianCopula:
    """Copula over (parameters, objective) fitted on one dataset."""

    def __init__(self, dataset: PerformanceDataset):
        if len(dataset) < 10:
            raise TuningError(
                f"need >= 10 source observations, got {len(dataset)}"
            )
        self.space: ConfigSpace = dataset.space
        digits = dataset.ordinal_features()
        self._marginals = [
            _OrdinalMarginal(digits[:, j], p.cardinality)
            for j, p in enumerate(self.space.parameters)
        ]
        z_params = np.column_stack(
            [m.to_z(digits[:, j]) for j, m in enumerate(self._marginals)]
        )
        # Objective: empirical normal scores of the runtimes.
        from scipy import stats

        ranks = stats.rankdata(dataset.runtimes, method="average")
        u = (ranks - 0.5) / len(dataset)
        z_obj = stats.norm.ppf(np.clip(u, 1e-6, 1 - 1e-6))
        self._runtimes_sorted = np.sort(dataset.runtimes)

        z = np.column_stack([z_params, z_obj])
        cov = np.cov(z, rowvar=False)
        # Regularize toward identity for numerical stability.
        cov = 0.98 * cov + 0.02 * np.eye(cov.shape[0])
        self._cov = cov
        d = z_params.shape[1]
        self._sigma_pp = cov[:d, :d]
        self._sigma_py = cov[:d, d]
        self._sigma_yy = float(cov[d, d])
        cond_cov = self._sigma_pp - np.outer(
            self._sigma_py, self._sigma_py
        ) / self._sigma_yy
        # Symmetrize + jitter before Cholesky.
        cond_cov = (cond_cov + cond_cov.T) / 2.0
        cond_cov[np.diag_indices_from(cond_cov)] += 1e-8
        self._cond_chol = linalg.cholesky(cond_cov, lower=True)

    @property
    def objective_correlations(self) -> np.ndarray:
        """Copula correlation of each parameter with the objective."""
        d = self._sigma_py.size
        diag = np.sqrt(np.diag(self._sigma_pp))
        return self._sigma_py / (diag * np.sqrt(self._sigma_yy))

    def sample_conditioned(
        self,
        rng: np.random.Generator,
        quantile: float,
        n: int = 1,
    ) -> np.ndarray:
        """Sample configuration indices conditioned on a fast objective.

        Parameters
        ----------
        quantile:
            Target objective quantile in (0, 1); e.g. 0.05 asks for
            configurations whose runtime sits in the fastest 5%.
        n:
            Number of samples.
        """
        if not 0.0 < quantile < 1.0:
            raise TuningError(f"quantile must be in (0,1), got {quantile}")
        if n < 1:
            raise TuningError(f"n must be >= 1, got {n}")
        from scipy import stats

        z_y = float(stats.norm.ppf(quantile))
        mean = self._sigma_py * (z_y / self._sigma_yy)
        eps = rng.standard_normal((n, mean.size))
        z = mean[None, :] + eps @ self._cond_chol.T
        digits = np.column_stack(
            [m.from_z(z[:, j]) for j, m in enumerate(self._marginals)]
        )
        # Mixed-radix composition back to indices.
        place = np.ones(len(self.space.parameters), dtype=np.int64)
        cards = [p.cardinality for p in self.space.parameters]
        for i in range(len(cards) - 2, -1, -1):
            place[i] = place[i + 1] * cards[i + 1]
        return (digits * place[None, :]).sum(axis=1).astype(np.int64)


class CopulaTransferTuner(Tuner):
    """Transfer-learning tuner: propose copula samples from source data.

    Parameters
    ----------
    space:
        Target-task configuration space (must match the source space).
    source:
        Source-task performance dataset (e.g. the SM table when tuning XL).
    quantile:
        Objective quantile the proposals are conditioned on.
    source_fraction:
        Fit the copula on only the fastest fraction of the source rows.
        Tile/packing effects are non-monotone over the full space, which a
        Gaussian copula cannot represent; restricting to the promising
        region concentrates the marginals where they transfer (the ICS'23
        method similarly models the high-performing region).
    """

    name = "copula-transfer"

    def __init__(
        self,
        space: ConfigSpace,
        source: PerformanceDataset,
        seed: int = 0,
        quantile: float = 0.05,
        source_fraction: float = 0.25,
    ):
        super().__init__(space, seed)
        if source.space.parameter_names != space.parameter_names:
            raise TuningError("source dataset space does not match target")
        if not 0.0 < source_fraction <= 1.0:
            raise TuningError(
                f"source_fraction must be in (0,1], got {source_fraction}"
            )
        if source_fraction < 1.0:
            keep = max(10, int(round(source_fraction * len(source))))
            fastest = np.argsort(source.runtimes)[:keep]
            source = source.subset(fastest)
        self.copula = GaussianCopula(source)
        self.quantile = quantile
        self.reset()

    def reset(self) -> None:
        self._rng = rng_from(self.seed, "copula-transfer")

    def propose(self, history: TuningHistory) -> int:
        seen = history.evaluated
        for _ in range(32):
            idx = int(
                self.copula.sample_conditioned(self._rng, self.quantile, 1)[0]
            )
            if idx not in seen:
                return idx
        # Copula keeps re-proposing known-good configs: fall back random.
        for _ in range(64):
            idx = int(self._rng.integers(self.space.size))
            if idx not in seen:
                return idx
        return int(self._rng.integers(self.space.size))
