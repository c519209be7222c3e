"""Bayesian optimization with a GP surrogate and expected improvement.

The classic autotuning loop the paper cites (ytopt/GPTune family):
initialize with random evaluations, then repeatedly fit a GP to the
log-runtimes observed so far, score a random candidate pool with Expected
Improvement, and evaluate the maximizer.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.space import ConfigSpace
from repro.errors import TuningError
from repro.tuning.base import Tuner, TuningHistory
from repro.tuning.gp import GaussianProcess, GPParams
from repro.utils.rng import rng_from

# scipy.stats is imported where it is used (see repro.analysis.clt).

__all__ = ["BayesianOptTuner"]


class BayesianOptTuner(Tuner):
    """GP-EI Bayesian optimization over a finite configuration space.

    Parameters
    ----------
    space:
        The configuration space.
    seed:
        Randomness for initialization and candidate pools.
    n_init:
        Random evaluations before the first GP fit.
    pool_size:
        Candidate pool scored by EI each iteration.
    gp_params:
        Kernel hyperparameters (lengthscale is in standardized-feature
        units).
    """

    name = "gp-bo"

    def __init__(
        self,
        space: ConfigSpace,
        seed: int = 0,
        n_init: int = 8,
        pool_size: int = 512,
        gp_params: GPParams | None = None,
    ):
        super().__init__(space, seed)
        if n_init < 2:
            raise TuningError(f"n_init must be >= 2, got {n_init}")
        if pool_size < 1:
            raise TuningError(f"pool_size must be >= 1, got {pool_size}")
        self.n_init = n_init
        self.pool_size = pool_size
        self.gp_params = gp_params or GPParams(
            lengthscale=1.2, noise_variance=1e-3
        )
        # Feature standardization constants over the whole space.
        digits = space.ordinal_matrix()
        self._feat_mean = digits.mean(axis=0)
        self._feat_std = digits.std(axis=0)
        self._feat_std[self._feat_std == 0] = 1.0
        self.reset()

    def reset(self) -> None:
        self._rng = rng_from(self.seed, "gp-bo")

    def _features(self, indices: np.ndarray) -> np.ndarray:
        digits = self.space.ordinal_matrix(indices)
        return (digits - self._feat_mean) / self._feat_std

    def propose(self, history: TuningHistory) -> int:
        seen = history.evaluated
        if len(history) < self.n_init or len(seen) >= self.space.size:
            while True:
                idx = int(self._rng.integers(self.space.size))
                if idx not in seen or len(seen) >= self.space.size:
                    return idx

        x = self._features(np.asarray(history.indices))
        y = np.log(np.asarray(history.runtimes))
        gp = GaussianProcess(self.gp_params).fit(x, y)

        pool = self._rng.choice(self.space.size, size=self.pool_size, replace=False)
        pool = np.asarray([i for i in pool if int(i) not in seen], dtype=np.int64)
        if pool.size == 0:
            return int(self._rng.integers(self.space.size))
        mean, std = gp.predict(self._features(pool), return_std=True)

        best = float(np.min(y))
        from scipy import stats

        # Expected improvement for minimization of log-runtime.
        gamma = (best - mean) / std
        ei = std * (gamma * stats.norm.cdf(gamma) + stats.norm.pdf(gamma))
        return int(pool[int(np.argmax(ei))])
