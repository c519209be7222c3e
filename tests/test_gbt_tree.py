"""Tests for the histogram regression tree."""

import numpy as np
import pytest

from repro.errors import ModelNotFittedError
from repro.gbt.histogram import bin_matrix
from repro.gbt.tree import RegressionTree, TreeParams


def _fit_squared_loss(x, y, params=None):
    """Fit one tree directly to targets under squared loss."""
    binned = bin_matrix(x)
    grad = -y  # pred starts at 0; grad = pred - y
    hess = np.ones_like(y)
    tree = RegressionTree(params).fit(binned, grad, hess)
    return tree, binned


def _n_leaves(tree):
    return int((tree.feature < 0).sum())


def _depth(tree):
    """Depth of the fitted tree (root = depth 1)."""
    depth = np.ones(tree.n_nodes, dtype=np.int32)
    for node in range(tree.n_nodes):
        for child in (tree.left[node], tree.right[node]):
            if child >= 0:
                depth[child] = depth[node] + 1
    return int(depth.max())


class TestParams:
    def test_invalid(self):
        with pytest.raises(ValueError):
            TreeParams(max_depth=0)
        with pytest.raises(ValueError):
            TreeParams(min_samples_leaf=0)
        with pytest.raises(ValueError):
            TreeParams(reg_lambda=-1)


class TestFitting:
    def test_perfect_split(self):
        """A single binary feature perfectly explaining y is found."""
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        tree, binned = _fit_squared_loss(
            x, y, TreeParams(max_depth=2, reg_lambda=0.0)
        )
        pred = tree.predict_binned(binned.codes)
        np.testing.assert_allclose(pred, y, atol=1e-9)

    def test_depth_limit(self, rng):
        x = rng.random((200, 4))
        y = rng.random(200)
        tree, _ = _fit_squared_loss(x, y, TreeParams(max_depth=2))
        assert _depth(tree) <= 3  # root=1, so <= max_depth+1

    def test_min_samples_leaf(self, rng):
        x = rng.random((100, 3))
        y = rng.random(100)
        binned = bin_matrix(x)
        tree = RegressionTree(TreeParams(min_samples_leaf=30)).fit(
            binned, -y, np.ones_like(y)
        )
        # Count samples per leaf via prediction node assignment.
        assert _n_leaves(tree) <= 100 // 30 + 1

    def test_reduces_loss(self, rng):
        x = rng.random((300, 5))
        y = x[:, 0] * 3 + rng.normal(0, 0.1, 300)
        tree, binned = _fit_squared_loss(x, y, TreeParams(max_depth=4))
        pred = tree.predict_binned(binned.codes)
        assert np.mean((pred - y) ** 2) < np.var(y) * 0.5

    def test_leaf_value_is_newton_step(self):
        """With lambda=0 a stump leaf equals the mean residual."""
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([2.0, 4.0, 10.0, 20.0])
        tree, binned = _fit_squared_loss(
            x, y, TreeParams(max_depth=1, reg_lambda=0.0)
        )
        pred = tree.predict_binned(binned.codes)
        np.testing.assert_allclose(pred[:2], 3.0)
        np.testing.assert_allclose(pred[2:], 15.0)

    def test_feature_mask(self, rng):
        x = rng.random((100, 2))
        y = x[:, 0]  # only feature 0 is informative
        binned = bin_matrix(x)
        mask = np.array([False, True])
        tree = RegressionTree(TreeParams(max_depth=3)).fit(
            binned, -y, np.ones_like(y), feature_mask=mask
        )
        used = set(tree.feature[tree.feature >= 0].tolist())
        assert 0 not in used

    def test_rows_subset(self, rng):
        x = rng.random((100, 2))
        y = rng.random(100)
        binned = bin_matrix(x)
        rows = np.arange(50)
        tree = RegressionTree().fit(binned, -y, np.ones_like(y), rows=rows)
        assert tree.n_nodes >= 1

    def test_gamma_prunes(self, rng):
        x = rng.random((200, 3))
        y = rng.normal(0, 1e-3, 200)  # almost no structure
        binned = bin_matrix(x)
        tree = RegressionTree(TreeParams(gamma=10.0)).fit(
            binned, -y, np.ones_like(y)
        )
        assert _n_leaves(tree) == 1  # nothing worth splitting

    def test_input_validation(self, rng):
        binned = bin_matrix(rng.random((10, 2)))
        with pytest.raises(ValueError):
            RegressionTree().fit(binned, np.zeros(5), np.ones(10))


class TestPrediction:
    def test_unfitted_raises(self):
        with pytest.raises(ModelNotFittedError):
            RegressionTree().predict_binned(np.zeros((1, 1), dtype=np.int32))

    def test_raw_matches_binned(self, rng):
        x = rng.random((150, 4))
        y = x[:, 1] * 2 + x[:, 2]
        tree, binned = _fit_squared_loss(x, y, TreeParams(max_depth=4))
        np.testing.assert_allclose(
            tree.predict_raw(x), tree.predict_binned(binned.codes)
        )

    def test_predicts_new_rows(self, rng):
        x = rng.random((100, 2))
        y = (x[:, 0] > 0.5).astype(float)
        tree, binned = _fit_squared_loss(x, y, TreeParams(max_depth=2))
        x_new = np.array([[0.9, 0.5], [0.1, 0.5]])
        pred = tree.predict_raw(x_new)
        assert pred[0] > pred[1]
