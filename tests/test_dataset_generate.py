"""Tests for dataset generation and the PerformanceDataset container."""

import hashlib

import numpy as np
import pytest

from repro.dataset import GemmTask, Syr2kTask
from repro.dataset.generate import PerformanceDataset, generate_dataset
from repro.errors import DatasetError

#: sha256 of each kernel's full runtime table.  One performance model
#: serves both kernels; these pin that it reproduces each table exactly.
_TABLE_SHA256 = [
    (Syr2kTask, "SM",
     "8a05b3ee9e744b3327d3789fb050ce27f92d2d9c81ea4b19ec89feae0aa44536"),
    (Syr2kTask, "XL",
     "9b88b9faaa513ea1db4e1d12100ba455fff6867d3112ea1db37948b082f55f68"),
    (GemmTask, "SM",
     "523647bb94c13a1dea811b52abbcfc9b68e4e80ee51c5f4cde885d3ada33b1c2"),
    (GemmTask, "XL",
     "79d8beadeb9a3408f36b767b0faa32d6fcc7300d98cc17fb13eb31bdf3f74ea9"),
]


@pytest.mark.parametrize("task_cls,size,digest", _TABLE_SHA256)
def test_full_table_bytes_pinned(task_cls, size, digest):
    runtimes = generate_dataset(task_cls(size)).runtimes
    assert hashlib.sha256(runtimes.tobytes()).hexdigest() == digest


class TestGenerate:
    def test_full_table(self, sm_dataset):
        assert len(sm_dataset) == 10648
        assert sm_dataset.size == "SM"

    def test_accepts_task_or_string(self, sm_task):
        a = generate_dataset("SM", indices=[0, 1])
        b = generate_dataset(sm_task, indices=[0, 1])
        np.testing.assert_array_equal(a.runtimes, b.runtimes)

    def test_subset_generation(self):
        ds = generate_dataset("SM", indices=[5, 10, 20])
        assert len(ds) == 3
        assert ds.indices.tolist() == [5, 10, 20]

    def test_deterministic(self):
        a = generate_dataset("XL", indices=range(50))
        b = generate_dataset("XL", indices=range(50))
        np.testing.assert_array_equal(a.runtimes, b.runtimes)


class TestContainer:
    def test_config_accessor(self, sm_dataset):
        cfg = sm_dataset.config(0)
        assert set(cfg) == set(sm_dataset.space.parameter_names)

    def test_iteration(self):
        ds = generate_dataset("SM", indices=[1, 2])
        rows = list(ds)
        assert len(rows) == 2
        cfg, rt = rows[0]
        assert isinstance(cfg, dict) and rt > 0

    def test_subset_rows(self, sm_dataset):
        sub = sm_dataset.subset([10, 20])
        assert len(sub) == 2
        assert sub.indices[0] == sm_dataset.indices[10]

    def test_best_row(self, sm_dataset):
        best = sm_dataset.best_row
        assert sm_dataset.runtimes[best] == sm_dataset.runtimes.min()
        assert sm_dataset.best_runtime == sm_dataset.runtimes.min()

    def test_ordinal_features_shape(self, sm_dataset):
        feats = sm_dataset.ordinal_features([0, 1, 2])
        assert feats.shape == (3, 6)

    def test_summary(self, sm_dataset):
        s = sm_dataset.summary()
        assert s["rows"] == 10648
        assert s["runtime_min"] <= s["runtime_median"] <= s["runtime_max"]


class TestValidation:
    def test_duplicate_rows_rejected(self, space):
        with pytest.raises(DatasetError, match="unique"):
            PerformanceDataset(space, "SM", [1, 1], [0.1, 0.2])

    def test_length_mismatch_rejected(self, space):
        with pytest.raises(DatasetError):
            PerformanceDataset(space, "SM", [1, 2], [0.1])

    def test_nonpositive_runtime_rejected(self, space):
        with pytest.raises(DatasetError, match="positive"):
            PerformanceDataset(space, "SM", [1], [0.0])

    def test_out_of_range_index_rejected(self, space):
        with pytest.raises(DatasetError):
            PerformanceDataset(space, "SM", [space.size], [0.1])

    def test_empty_best_row_raises(self, space):
        ds = PerformanceDataset(space, "SM", [], [])
        with pytest.raises(DatasetError):
            _ = ds.best_row
