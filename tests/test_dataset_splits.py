"""Tests for train/test splits, disjoint ICL sets, curated neighbourhoods."""

import numpy as np
import pytest

from repro.dataset.splits import (
    curated_neighborhood,
    disjoint_example_sets,
    train_test_split,
)
from repro.errors import DatasetError
from repro.utils.rng import rng_from


class TestTrainTestSplit:
    def test_partition(self, sm_dataset):
        train, test = train_test_split(sm_dataset, 0.8, seed=1)
        assert len(train) + len(test) == len(sm_dataset)
        assert set(train.indices) & set(test.indices) == set()

    def test_fraction_respected(self, sm_dataset):
        train, test = train_test_split(sm_dataset, 0.8, seed=1)
        assert len(train) == round(0.8 * len(sm_dataset))

    def test_deterministic(self, sm_dataset):
        t1, _ = train_test_split(sm_dataset, 0.5, seed=7)
        t2, _ = train_test_split(sm_dataset, 0.5, seed=7)
        np.testing.assert_array_equal(t1.indices, t2.indices)

    def test_seed_changes_split(self, sm_dataset):
        t1, _ = train_test_split(sm_dataset, 0.5, seed=1)
        t2, _ = train_test_split(sm_dataset, 0.5, seed=2)
        assert not np.array_equal(t1.indices, t2.indices)

    def test_bad_fraction(self, sm_dataset):
        with pytest.raises(DatasetError):
            train_test_split(sm_dataset, 1.0)

    def test_tiny_dataset(self):
        from repro.dataset.generate import generate_dataset

        ds = generate_dataset("SM", indices=[0])
        with pytest.raises(DatasetError):
            train_test_split(ds, 0.5)


class TestDisjointSets:
    def test_pairwise_disjoint(self, sm_dataset):
        sets, queries = disjoint_example_sets(sm_dataset, 5, 20, seed=3)
        all_rows = np.concatenate(sets + [queries])
        assert len(np.unique(all_rows)) == len(all_rows)

    def test_sizes(self, sm_dataset):
        sets, queries = disjoint_example_sets(
            sm_dataset, 3, 7, seed=0, n_queries=4
        )
        assert len(sets) == 3 and all(len(s) == 7 for s in sets)
        assert queries.shape == (4,)

    def test_deterministic(self, sm_dataset):
        a, qa = disjoint_example_sets(sm_dataset, 2, 5, seed=9)
        b, qb = disjoint_example_sets(sm_dataset, 2, 5, seed=9)
        np.testing.assert_array_equal(qa, qb)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_too_large_raises(self, sm_dataset):
        with pytest.raises(DatasetError):
            disjoint_example_sets(sm_dataset, 2, len(sm_dataset))

    def test_invalid_args(self, sm_dataset):
        with pytest.raises(DatasetError):
            disjoint_example_sets(sm_dataset, 0, 5)
        with pytest.raises(DatasetError):
            disjoint_example_sets(sm_dataset, 1, 5, n_queries=0)


class TestCuratedNeighborhood:
    def test_query_not_in_examples(self, sm_dataset):
        rows, query = curated_neighborhood(sm_dataset, 20, seed=4)
        assert query not in rows.tolist()
        assert rows.shape == (20,)

    def test_examples_are_nearest(self, sm_dataset):
        """Every selected example must be at least as close (weighted) as
        every non-selected row."""
        rows, query = curated_neighborhood(sm_dataset, 10, seed=5)
        dist = sm_dataset.space.pairwise_weighted_distances(
            int(sm_dataset.indices[query]), sm_dataset.indices
        )
        dist[query] = np.inf
        selected_max = dist[rows].max()
        unselected = np.setdiff1d(
            np.arange(len(sm_dataset)), np.append(rows, query)
        )
        assert selected_max <= dist[unselected].min() + 1e-12

    def test_minimal_distance_vs_random(self, sm_dataset, rng):
        """Curated sets have far smaller mean edit distance than random."""
        rows, query = curated_neighborhood(sm_dataset, 20, seed=6)
        qidx = int(sm_dataset.indices[query])
        d_curated = sm_dataset.space.pairwise_weighted_distances(
            qidx, sm_dataset.indices[rows]
        ).mean()
        random_rows = rng.choice(len(sm_dataset), 20, replace=False)
        d_random = sm_dataset.space.pairwise_weighted_distances(
            qidx, sm_dataset.indices[random_rows]
        ).mean()
        assert d_curated < d_random / 2

    def test_deterministic(self, sm_dataset):
        a = curated_neighborhood(sm_dataset, 5, seed=1)
        b = curated_neighborhood(sm_dataset, 5, seed=1)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_too_large_raises(self, sm_dataset):
        with pytest.raises(DatasetError):
            curated_neighborhood(sm_dataset, len(sm_dataset))

    @staticmethod
    def reference(dataset, set_size, seed):
        """The selection with distances recomputed from the configuration
        indices, not from the table's stored digits."""
        query = int(rng_from(seed, "curated", set_size).integers(len(dataset)))
        dist = dataset.space.pairwise_weighted_distances(
            int(dataset.indices[query]), dataset.indices
        )
        dist[query] = np.inf
        return np.argsort(dist, kind="stable")[:set_size], query

    @pytest.mark.parametrize("which", ["sm_dataset", "xl_dataset"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("set_size", [1, 5, 25])
    def test_matches_reference_path(self, request, which, seed, set_size):
        dataset = request.getfixturevalue(which)
        rows, query = curated_neighborhood(dataset, set_size, seed=seed)
        want_rows, want_query = self.reference(dataset, set_size, seed)
        assert query == want_query
        np.testing.assert_array_equal(rows, want_rows)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_stored_digit_distances_are_bit_identical(self, sm_dataset, stride):
        dataset = sm_dataset.subset(np.arange(0, len(sm_dataset), stride))
        for row in (0, len(dataset) // 2, len(dataset) - 1):
            want = dataset.space.pairwise_weighted_distances(
                int(dataset.indices[row]), dataset.indices
            )
            assert dataset.weighted_distances(row).tobytes() == want.tobytes()
        digits = dataset._digits
        assert digits.dtype == np.uint8 and not digits.flags.writeable
