"""Dataset generation: the fixed (configuration, runtime) table per task.

:func:`generate_dataset` evaluates the analytical performance model over the
whole configuration space (or a subset) and returns a
:class:`PerformanceDataset` — the in-memory analogue of the CSV files the
paper's experiments consume.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.dataset.perfmodel import PerfModelParams, Syr2kPerformanceModel
from repro.dataset.space import ConfigSpace, Configuration
from repro.dataset.syr2k import Syr2kTask
from repro.errors import DatasetError

__all__ = ["PerformanceDataset", "generate_dataset"]


@dataclass
class PerformanceDataset:
    """A fixed table of configurations and their measured runtimes.

    Attributes
    ----------
    space:
        The configuration space the rows are drawn from.
    size:
        Problem-size label (invariant across rows; ``"SM"``/``"XL"`` in the
        paper's experiments).
    indices:
        Configuration indices into ``space`` of each row.
    runtimes:
        Measured runtime (seconds) of each row; lower is better.
    """

    space: ConfigSpace
    size: str
    indices: np.ndarray
    runtimes: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.runtimes = np.asarray(self.runtimes, dtype=float)
        if self.indices.ndim != 1 or self.runtimes.ndim != 1:
            raise DatasetError("indices and runtimes must be 1-D")
        if self.indices.shape != self.runtimes.shape:
            raise DatasetError(
                f"indices ({self.indices.shape[0]}) and runtimes "
                f"({self.runtimes.shape[0]}) differ in length"
            )
        if len(np.unique(self.indices)) != len(self.indices):
            raise DatasetError("dataset rows must be unique configurations")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.space.size
        ):
            raise DatasetError("configuration index out of range for space")
        if np.any(~np.isfinite(self.runtimes)) or np.any(self.runtimes <= 0):
            raise DatasetError("runtimes must be finite and positive")

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def __iter__(self) -> Iterator[tuple[Configuration, float]]:
        for i in range(len(self)):
            yield self.config(i), float(self.runtimes[i])

    def config(self, row: int) -> Configuration:
        """The configuration dict of table row ``row``."""
        return self.space.from_index(int(self.indices[row]))

    def subset(self, rows: Sequence[int]) -> "PerformanceDataset":
        """A new dataset containing only ``rows`` (positions, not indices)."""
        rows = np.asarray(rows, dtype=np.int64)
        return PerformanceDataset(
            space=self.space,
            size=self.size,
            indices=self.indices[rows],
            runtimes=self.runtimes[rows],
        )

    @property
    def best_row(self) -> int:
        """Row of the fastest configuration."""
        if len(self) == 0:
            raise DatasetError("dataset is empty")
        return int(np.argmin(self.runtimes))

    @property
    def best_runtime(self) -> float:
        """The minimal runtime in the table."""
        return float(self.runtimes[self.best_row])

    @functools.cached_property
    def _digits(self) -> np.ndarray:
        """Every row's ordinal digits, computed once, in the narrowest
        unsigned dtype (``uint8`` for syr2k: 64 KB for the full table),
        read-only."""
        widest = max(p.cardinality for p in self.space.parameters)
        digits = self.space.ordinal_matrix(self.indices).astype(
            np.min_scalar_type(widest - 1)
        )
        digits.flags.writeable = False
        return digits

    def weighted_distances(self, row: int) -> np.ndarray:
        """Weighted edit distance from row ``row``'s configuration to every
        row's: :meth:`ConfigSpace.pairwise_weighted_distances` over
        :attr:`indices`, from digits the table computes once."""
        return self.space.digit_distances(self._digits[row], self._digits)

    def ordinal_features(self, rows: Sequence[int] | None = None) -> np.ndarray:
        """Per-parameter ordinal digits for the given rows (all when None)."""
        idx = self.indices if rows is None else self.indices[np.asarray(rows)]
        return self.space.ordinal_matrix(idx)

    def summary(self) -> dict:
        """Descriptive statistics used by reports and examples."""
        return {
            "size": self.size,
            "rows": len(self),
            "runtime_min": float(self.runtimes.min()),
            "runtime_median": float(np.median(self.runtimes)),
            "runtime_max": float(self.runtimes.max()),
        }


def generate_dataset(
    task,
    params: PerfModelParams | None = None,
    seed: int = 20250705,
    indices: Sequence[int] | None = None,
) -> PerformanceDataset:
    """Generate the fixed performance table for a kernel task.

    Parameters
    ----------
    task:
        A :class:`Syr2kTask`, a :class:`repro.dataset.gemm.GemmTask`, or a
        size label (``"SM"``, ``"XL"``, ...) meaning syr2k at that size.
    params, seed:
        Forwarded to the performance model; defaults give the calibrated
        tables used throughout the benchmarks.
    indices:
        Optionally restrict to a subset of configuration indices (the full
        10,648-row table is generated when omitted).
    """
    if isinstance(task, str):
        task = Syr2kTask(task)
    model = Syr2kPerformanceModel(task, params=params, seed=seed)
    if indices is None:
        idx = np.arange(model.space.size, dtype=np.int64)
    else:
        idx = np.asarray(indices, dtype=np.int64)
    return PerformanceDataset(
        space=model.space,
        size=task.size,
        indices=idx,
        runtimes=model.runtimes(idx),
    )
