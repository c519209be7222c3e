"""Sampling utilities for the experiment grid.

Three samplers mirror Section III-B of the paper:

* :func:`train_test_split` — the 80/20 split behind the XGBoost baseline
  (Table I uses up to "8519 (80% Train)" examples);
* :func:`disjoint_example_sets` — "five disjoint datasets with the same
  number of in-context learning examples to limit the possibility of poor
  examples biasing the results", plus a query row disjoint from all of them;
* :func:`curated_neighborhood` — the "minimal configuration-space editing
  distance" setting where all ICL examples and the query are nearly
  identical configurations.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.generate import PerformanceDataset
from repro.errors import DatasetError
from repro.utils.rng import rng_from

__all__ = ["train_test_split", "disjoint_example_sets", "curated_neighborhood"]


def train_test_split(
    dataset: PerformanceDataset,
    train_fraction: float = 0.8,
    seed: int = 0,
) -> tuple[PerformanceDataset, PerformanceDataset]:
    """Split a dataset into disjoint train/test partitions.

    Parameters
    ----------
    train_fraction:
        Fraction (in (0, 1)) of rows assigned to the training partition.
    seed:
        Split permutation seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    n = len(dataset)
    if n < 2:
        raise DatasetError("need at least two rows to split")
    n_train = int(round(n * train_fraction))
    n_train = min(max(n_train, 1), n - 1)
    perm = rng_from(seed, "train-test-split", n).permutation(n)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


def disjoint_example_sets(
    dataset: PerformanceDataset,
    n_sets: int,
    set_size: int,
    seed: int = 0,
    n_queries: int = 1,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Draw ``n_sets`` pairwise-disjoint row sets plus disjoint query rows.

    Returns
    -------
    (sets, query_rows):
        ``sets`` is a list of ``n_sets`` row arrays of length ``set_size``;
        ``query_rows`` holds ``n_queries`` rows disjoint from all sets.

    Raises
    ------
    DatasetError
        If the dataset is too small to supply disjoint material.
    """
    if n_sets < 1 or set_size < 1 or n_queries < 1:
        raise DatasetError("n_sets, set_size and n_queries must all be >= 1")
    need = n_sets * set_size + n_queries
    n = len(dataset)
    if need > n:
        raise DatasetError(
            f"need {need} rows for {n_sets} disjoint sets of {set_size} "
            f"plus {n_queries} queries, but dataset has only {n}"
        )
    perm = rng_from(seed, "disjoint-sets", n_sets, set_size).permutation(n)
    sets = [
        perm[k * set_size : (k + 1) * set_size].copy() for k in range(n_sets)
    ]
    start = n_sets * set_size
    query_rows = perm[start : start + n_queries].copy()
    return sets, query_rows


def curated_neighborhood(
    dataset: PerformanceDataset,
    set_size: int,
    seed: int = 0,
) -> tuple[np.ndarray, int]:
    """Draw a query plus the ``set_size`` nearest configurations to it.

    Implements the paper's curated setting: "all examples and the
    prediction task have minimal configuration-space editing distance".
    A random query row is chosen, then the examples are the rows whose
    configurations have the smallest weighted edit distance to the query
    (ties broken deterministically by row order).

    Returns
    -------
    (example_rows, query_row)
    """
    n = len(dataset)
    if set_size < 1:
        raise DatasetError("set_size must be >= 1")
    if set_size + 1 > n:
        raise DatasetError(
            f"need {set_size + 1} rows for a curated neighbourhood, "
            f"dataset has {n}"
        )
    rng = rng_from(seed, "curated", set_size)
    query_row = int(rng.integers(n))
    dist = dataset.weighted_distances(query_row)
    dist[query_row] = np.inf  # the query must not be its own example
    # stable argsort => deterministic tie-breaking by row position
    order = np.argsort(dist, kind="stable")
    return order[:set_size].copy(), query_row
