"""Second-order regression trees on histogram-binned features.

Each tree is grown greedily: a node's best split maximizes the XGBoost
gain

.. math::

    \\tfrac12\\Big(\\frac{G_L^2}{H_L+\\lambda} + \\frac{G_R^2}{H_R+\\lambda}
      - \\frac{G^2}{H+\\lambda}\\Big) - \\gamma

over all (feature, bin) pairs, computed from per-node gradient/hessian
histograms (two ``bincount`` passes per feature).  Leaf weights are the
regularized Newton step ``-G / (H + lambda)``.  The tree is stored in flat
arrays and prediction walks all rows level-by-level, fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelNotFittedError
from repro.gbt.histogram import BinnedMatrix

__all__ = ["TreeParams", "RegressionTree"]


@dataclass(frozen=True)
class TreeParams:
    """Growth constraints and regularization for one tree."""

    max_depth: int = 6
    min_samples_leaf: int = 1
    min_child_weight: float = 1e-3
    reg_lambda: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("reg_lambda and gamma must be non-negative")


class RegressionTree:
    """One histogram-split regression tree (used as a boosting weak learner).

    Not fitted at construction; call :meth:`fit` with binned features and
    per-row gradients/hessians.
    """

    def __init__(self, params: TreeParams | None = None):
        self.params = params or TreeParams()
        # Flat tree arrays; children == -1 marks a leaf.
        self.feature: np.ndarray | None = None
        self.bin_threshold: np.ndarray | None = None
        self.value_threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.leaf_value: np.ndarray | None = None
        self.n_nodes = 0

    # ------------------------------------------------------------------ #
    def fit(
        self,
        binned: BinnedMatrix,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray | None = None,
        feature_mask: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Grow the tree on ``rows`` (all rows when ``None``).

        Parameters
        ----------
        binned:
            Quantized training features.
        grad, hess:
            First/second-order loss derivatives per training row.
        rows:
            Row subset to train on (row subsampling hook).
        feature_mask:
            Boolean mask of features eligible for splitting
            (column-subsampling hook).
        """
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        if grad.shape != hess.shape or grad.ndim != 1:
            raise ValueError("grad and hess must be equal-length 1-D arrays")
        if grad.shape[0] != binned.n_rows:
            raise ValueError("grad length must match binned matrix rows")
        if rows is None:
            rows = np.arange(binned.n_rows, dtype=np.int64)
        else:
            rows = np.asarray(rows, dtype=np.int64)
        if feature_mask is None:
            feature_mask = np.ones(binned.n_features, dtype=bool)

        feature: list[int] = []
        bin_thr: list[int] = []
        val_thr: list[float] = []
        left: list[int] = []
        right: list[int] = []
        leaf: list[float] = []

        p = self.params
        lam = p.reg_lambda

        def new_node() -> int:
            feature.append(-1)
            bin_thr.append(-1)
            val_thr.append(np.nan)
            left.append(-1)
            right.append(-1)
            leaf.append(0.0)
            return len(feature) - 1

        # Iterative growth with an explicit stack: (node_id, rows, depth).
        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [(root, rows, 1)]
        while stack:
            node, node_rows, depth = stack.pop()
            g = grad[node_rows]
            h = hess[node_rows]
            g_sum = float(g.sum())
            h_sum = float(h.sum())
            leaf[node] = -g_sum / (h_sum + lam)

            if (
                depth > p.max_depth
                or node_rows.size < 2 * p.min_samples_leaf
                or h_sum < 2 * p.min_child_weight
            ):
                continue

            parent_score = g_sum * g_sum / (h_sum + lam)
            best_gain = 0.0
            best_feat = -1
            best_bin = -1
            codes = binned.codes[node_rows]
            for j in range(binned.n_features):
                if not feature_mask[j]:
                    continue
                nb = int(binned.n_bins[j])
                if nb < 2:
                    continue
                cj = codes[:, j]
                g_hist = np.bincount(cj, weights=g, minlength=nb)
                h_hist = np.bincount(cj, weights=h, minlength=nb)
                c_hist = np.bincount(cj, minlength=nb)
                gl = np.cumsum(g_hist)[:-1]
                hl = np.cumsum(h_hist)[:-1]
                cl = np.cumsum(c_hist)[:-1]
                gr = g_sum - gl
                hr = h_sum - hl
                cr = node_rows.size - cl
                valid = (
                    (cl >= p.min_samples_leaf)
                    & (cr >= p.min_samples_leaf)
                    & (hl >= p.min_child_weight)
                    & (hr >= p.min_child_weight)
                )
                if not valid.any():
                    continue
                gain = np.where(
                    valid,
                    0.5
                    * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score)
                    - p.gamma,
                    -np.inf,
                )
                b = int(np.argmax(gain))
                if gain[b] > best_gain:
                    best_gain = float(gain[b])
                    best_feat = j
                    best_bin = b

            if best_feat < 0:
                continue

            go_left = codes[:, best_feat] <= best_bin
            rows_l = node_rows[go_left]
            rows_r = node_rows[~go_left]
            feature[node] = best_feat
            bin_thr[node] = best_bin
            thr = binned.thresholds[best_feat]
            val_thr[node] = float(thr[best_bin]) if best_bin < thr.size else np.inf
            lid, rid = new_node(), new_node()
            left[node], right[node] = lid, rid
            stack.append((lid, rows_l, depth + 1))
            stack.append((rid, rows_r, depth + 1))

        self.feature = np.asarray(feature, dtype=np.int32)
        self.bin_threshold = np.asarray(bin_thr, dtype=np.int32)
        self.value_threshold = np.asarray(val_thr, dtype=float)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.leaf_value = np.asarray(leaf, dtype=float)
        self.n_nodes = len(feature)
        return self

    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if self.feature is None:
            raise ModelNotFittedError("RegressionTree used before fit()")

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict for rows quantized with the training thresholds."""
        self._check_fitted()
        codes = np.asarray(codes)
        node = np.zeros(codes.shape[0], dtype=np.int32)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            nd = node[idx]
            f = self.feature[nd]
            go_left = codes[idx, f] <= self.bin_threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] >= 0
        return self.leaf_value[node]

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        """Predict for raw (unbinned) feature rows via value thresholds."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        node = np.zeros(x.shape[0], dtype=np.int32)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            nd = node[idx]
            f = self.feature[nd]
            go_left = x[idx, f] <= self.value_threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] >= 0
        return self.leaf_value[node]

