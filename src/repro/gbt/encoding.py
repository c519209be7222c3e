"""Feature/target encoding from configuration spaces to learner matrices.

Trees consume a dense float matrix.  The encoder maps each parameter to:

* boolean/categorical parameters -> their ordinal digit (trees split
  categorically on the few levels just fine);
* numeric (ordinal) parameters   -> both the raw value and its log2, which
  lets shallow trees pick up the multiplicative structure of tile effects.

Runtimes are optionally modelled in log space (``TargetTransform("log")``):
the performance model is multiplicative, so log-space residuals are far
closer to homoscedastic, which is also how practitioners run XGBoost on
runtime data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.generate import PerformanceDataset
from repro.dataset.space import ConfigSpace
from repro.errors import DatasetError

__all__ = ["FeatureEncoder", "TargetTransform"]


class FeatureEncoder:
    """Encode dataset rows into a feature matrix for the GBT learner."""

    def __init__(self, space: ConfigSpace):
        self.space = space
        names: list[str] = []
        for p in space.parameters:
            names.append(p.name)
            if p.is_numeric:
                names.append(f"log2({p.name})")
        self.feature_names: tuple[str, ...] = tuple(names)

    @property
    def n_features(self) -> int:
        """Width of the encoded matrix."""
        return len(self.feature_names)

    def encode_indices(self, indices) -> np.ndarray:
        """Encode configuration indices into an ``(n, n_features)`` matrix."""
        digits = self.space.ordinal_matrix(np.asarray(indices, dtype=np.int64))
        cols: list[np.ndarray] = []
        for j, p in enumerate(self.space.parameters):
            if p.is_numeric:
                values = np.asarray(p.values, dtype=float)[digits[:, j]]
                cols.append(values)
                cols.append(np.log2(values))
            else:
                cols.append(digits[:, j].astype(float))
        return np.column_stack(cols)

    def encode_dataset(self, dataset: PerformanceDataset) -> np.ndarray:
        """Encode all rows of a dataset."""
        if dataset.space.parameter_names != self.space.parameter_names:
            raise DatasetError(
                "dataset space does not match the encoder's space"
            )
        return self.encode_indices(dataset.indices)


@dataclass(frozen=True)
class TargetTransform:
    """Bijective transform applied to the regression target.

    ``kind`` is ``"identity"`` or ``"log"`` (natural log; targets must then
    be strictly positive).
    """

    kind: str = "log"

    def __post_init__(self):
        if self.kind not in ("identity", "log"):
            raise ValueError(f"unknown target transform {self.kind!r}")

    def forward(self, y) -> np.ndarray:
        """Map raw targets into model space."""
        arr = np.asarray(y, dtype=float)
        if self.kind == "identity":
            return arr.copy()
        if np.any(arr <= 0):
            raise ValueError("log target transform requires positive targets")
        return np.log(arr)

    def inverse(self, z) -> np.ndarray:
        """Map model-space predictions back to raw target units."""
        arr = np.asarray(z, dtype=float)
        if self.kind == "identity":
            return arr.copy()
        # Guard against overflow from wild extrapolations.
        return np.exp(np.clip(arr, -700.0, 700.0))

    def __str__(self) -> str:
        return self.kind
