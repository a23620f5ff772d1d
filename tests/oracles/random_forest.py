"""Recursive reference builder of the random-forest surrogate.

:class:`DecisionTreeRegressor` is the original depth-first CART tree the
level-wise forest builder in :mod:`repro.core.surrogate.random_forest` was
derived from: the same variance-reduction split criterion, distinct-value and
min-leaf validity, midpoint thresholds and degenerate-tie guard, built node by
node with one Python call stack per node.  :class:`RecursiveRandomForest` is
:class:`~repro.core.surrogate.random_forest.RandomForestSurrogate` fitted
tree by tree with it, in the original interleaved bootstrap/feature-subset
RNG draw order.  Both serve the equivalence tests
(``tests/core/test_random_forest_levelwise.py``) and the legacy path of
``benchmarks/bench_ask_tell_scaling.py``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.surrogate.random_forest import RandomForestSurrogate, _ArrayTree

__all__ = ["DecisionTreeRegressor", "RecursiveRandomForest"]


class DecisionTreeRegressor:
    """A regression tree with variance-reduction splits.

    Parameters
    ----------
    max_depth:
        Maximum tree depth.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each child.
    max_features:
        Number of features considered per split (``None`` = all,
        ``"sqrt"`` = ⌈√d⌉).
    rng:
        Random generator used for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 18,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: Optional[object] = "sqrt",
        rng: Optional[np.random.Generator] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid minimum sample constraints")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng or np.random.default_rng()
        # Array representation filled by fit().
        self._feature: List[int] = []
        self._threshold: List[float] = []
        self._left: List[int] = []
        self._right: List[int] = []
        self._value: List[float] = []
        self.fitted = False

    # -------------------------------------------------------------------- fit
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Build the tree on ``X`` (n×d) and ``y`` (n,)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
            raise ValueError("invalid training data")
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._n_features = X.shape[1]
        self._build(X, y, np.arange(X.shape[0]), depth=0)
        self.fitted = True
        return self

    def _n_split_features(self) -> int:
        d = self._n_features
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(math.ceil(math.sqrt(d))))
        return max(1, min(d, int(self.max_features)))

    def _new_node(self) -> int:
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(0.0)
        return len(self._feature) - 1

    def _build(self, X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int) -> int:
        node = self._new_node()
        y_node = y[idx]
        self._value[node] = float(np.mean(y_node))
        n = idx.shape[0]
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or np.ptp(y_node) < 1e-12
        ):
            return node

        best = self._best_split(X, y, idx)
        if best is None:
            return node
        feature, threshold, left_mask = best
        left_idx = idx[left_mask]
        right_idx = idx[~left_mask]
        self._feature[node] = feature
        self._threshold[node] = threshold
        self._left[node] = self._build(X, y, left_idx, depth + 1)
        self._right[node] = self._build(X, y, right_idx, depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, idx: np.ndarray
    ) -> Optional[Tuple[int, float, np.ndarray]]:
        """Find the variance-minimising split over a random feature subset."""
        n = idx.shape[0]
        y_node = y[idx]
        features = self.rng.choice(
            self._n_features, size=self._n_split_features(), replace=False
        )
        best_score = np.inf
        best: Optional[Tuple[int, float, np.ndarray]] = None
        min_leaf = self.min_samples_leaf
        for feature in features:
            values = X[idx, feature]
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            y_sorted = y_node[order]
            # Valid split positions: between distinct consecutive values, with
            # at least min_leaf samples on each side.
            csum = np.cumsum(y_sorted)
            csum2 = np.cumsum(y_sorted**2)
            total, total2 = csum[-1], csum2[-1]
            counts_left = np.arange(1, n)
            valid = (v_sorted[1:] > v_sorted[:-1]) & (counts_left >= min_leaf) & (
                (n - counts_left) >= min_leaf
            )
            if not np.any(valid):
                continue
            sum_left = csum[:-1]
            sum2_left = csum2[:-1]
            sum_right = total - sum_left
            sum2_right = total2 - sum2_left
            counts_right = n - counts_left
            sse_left = sum2_left - sum_left**2 / counts_left
            sse_right = sum2_right - sum_right**2 / counts_right
            score = sse_left + sse_right
            score[~valid] = np.inf
            pos = int(np.argmin(score))
            if score[pos] < best_score:
                best_score = float(score[pos])
                threshold = 0.5 * (v_sorted[pos] + v_sorted[pos + 1])
                left_mask = values <= threshold
                # Guard against degenerate masks caused by ties.
                if min_leaf <= left_mask.sum() <= n - min_leaf:
                    best = (int(feature), float(threshold), left_mask)
        return best

    # ---------------------------------------------------------------- predict
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted mean for each row of ``X`` (vectorised traversal)."""
        if not self.fitted:
            raise RuntimeError("the tree has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        feature = np.asarray(self._feature)
        threshold = np.asarray(self._threshold)
        left = np.asarray(self._left)
        right = np.asarray(self._right)
        value = np.asarray(self._value)

        nodes = np.zeros(X.shape[0], dtype=int)
        for _ in range(self.max_depth + 1):
            is_internal = feature[nodes] >= 0
            if not np.any(is_internal):
                break
            f = feature[nodes[is_internal]]
            t = threshold[nodes[is_internal]]
            rows = np.nonzero(is_internal)[0]
            go_left = X[rows, f] <= t
            new_nodes = np.where(go_left, left[nodes[rows]], right[nodes[rows]])
            nodes[rows] = new_nodes
        return value[nodes]

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        return len(self._feature)


def _freeze(tree: DecisionTreeRegressor) -> _ArrayTree:
    """The fitted tree's node lists as the forest's flat-array storage."""
    return _ArrayTree(
        feature=np.asarray(tree._feature, dtype=np.intp),
        threshold=np.asarray(tree._threshold, dtype=float),
        left=np.asarray(tree._left, dtype=np.intp),
        right=np.asarray(tree._right, dtype=np.intp),
        value=np.asarray(tree._value, dtype=float),
        max_depth=tree.max_depth,
    )


class RecursiveRandomForest(RandomForestSurrogate):
    """A forest whose trees are grown one by one by :class:`DecisionTreeRegressor`.

    Each tree draws its bootstrap sample and then its per-node feature
    subsets from the forest generator, interleaved tree by tree.  The fitted
    trees are frozen into the forest's array storage, so prediction runs the
    production traversal.
    """

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RecursiveRandomForest":
        X, y = self._validate(X, y)
        self._fused_cache = None
        n = X.shape[0]
        self._trees = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=self._rng,
            )
            if self.bootstrap and n > 1:
                sample = self._rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree.fit(X[sample], y[sample])
            self._trees.append(_freeze(tree))
        self.fitted = True
        return self
