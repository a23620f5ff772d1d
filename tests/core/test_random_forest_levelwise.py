"""Tests for the level-wise (breadth-first, joint-frontier) forest builder.

The level-wise builder must implement exactly the same split criterion as the
recursive reference (:class:`oracles.random_forest.DecisionTreeRegressor`,
grown into a forest by :class:`~oracles.random_forest.RecursiveRandomForest`):
variance-reduction
scores over random feature subsets, distinct-value/min-leaf validity, midpoint
thresholds and the degenerate-tie guard.  With randomness removed
(``bootstrap=False``, ``max_features=None``) both builders face identical
decisions, so their trees must predict identically; with randomness enabled
the forests differ tree-by-tree (different RNG draw order) but must be
statistically equivalent.
"""

import numpy as np
import pytest

from oracles import RecursiveRandomForest
from repro.core.surrogate.random_forest import RandomForestSurrogate, _ArrayTree


def make_data(n=200, d=6, seed=0, noise=0.05, quantized=False):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if quantized:
        # Heavy value ties exercise the distinct-value and tie-guard logic.
        X = np.round(X * 8) / 8
    w = rng.normal(size=d)
    y = X @ w + np.sin(3 * X[:, 0]) + noise * rng.normal(size=n)
    return X, y


class TestDeterministicEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_single_tree_matches_reference_without_randomness(self, seed, quantized):
        X, y = make_data(n=120, d=4, seed=seed, quantized=quantized)
        kwargs = dict(n_estimators=1, bootstrap=False, max_features=None, seed=0)
        fast = RandomForestSurrogate(**kwargs).fit(X, y)
        ref = RecursiveRandomForest(**kwargs).fit(X, y)
        np.testing.assert_allclose(fast.predict(X)[0], ref.predict(X)[0])
        assert fast._trees[0].node_count == ref._trees[0].node_count

    def test_shallow_tree_matches_reference(self):
        X, y = make_data(n=80, d=3, seed=5)
        kwargs = dict(
            n_estimators=1, bootstrap=False, max_features=None, max_depth=3, seed=0
        )
        fast = RandomForestSurrogate(**kwargs).fit(X, y)
        ref = RecursiveRandomForest(**kwargs).fit(X, y)
        np.testing.assert_allclose(fast.predict(X)[0], ref.predict(X)[0])


class TestStatisticalEquivalence:
    def test_forest_quality_matches_reference(self):
        X_all, y_all = make_data(n=600, d=8, seed=1)
        X, y = X_all[:400], y_all[:400]
        X_test, y_test = X_all[400:], y_all[400:]
        fast = RandomForestSurrogate(seed=0).fit(X, y)
        ref = RecursiveRandomForest(seed=0).fit(X, y)
        mse = lambda f: float(np.mean((f.predict(X_test)[0] - y_test) ** 2))
        base = float(np.mean((np.mean(y) - y_test) ** 2))
        assert mse(fast) < 0.5 * base
        # Within 50% of each other's test error: same model family, same
        # hyperparameters, different RNG draw order.
        assert mse(fast) < 1.5 * mse(ref)
        assert mse(ref) < 1.5 * mse(fast)

    def test_uncertainty_positive_and_larger_away_from_data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-0.3, 0.3, size=(150, 2))
        y = X[:, 0] + X[:, 1]
        forest = RandomForestSurrogate(n_estimators=20, seed=0).fit(X, y)
        _, std_in = forest.predict(np.array([[0.0, 0.0]]))
        _, std_out = forest.predict(np.array([[3.0, -3.0]]))
        assert std_out[0] >= std_in[0] > 0


class TestLevelwiseEdgeCases:
    def test_single_sample(self):
        forest = RandomForestSurrogate(n_estimators=3, seed=0)
        forest.fit(np.array([[1.0, 2.0]]), np.array([5.0]))
        mean, _ = forest.predict(np.array([[1.0, 2.0]]))
        assert mean[0] == pytest.approx(5.0)
        assert all(t.node_count == 1 for t in forest._trees)

    def test_constant_targets_yield_single_leaf(self):
        X = np.random.default_rng(0).random((50, 3))
        forest = RandomForestSurrogate(n_estimators=4, seed=0).fit(X, np.full(50, 2.5))
        assert all(t.node_count == 1 for t in forest._trees)
        mean, _ = forest.predict(X[:7])
        assert np.allclose(mean, 2.5)

    def test_constant_features_yield_single_leaf(self):
        X = np.ones((30, 2))
        y = np.random.default_rng(0).normal(size=30)
        forest = RandomForestSurrogate(n_estimators=2, seed=0, bootstrap=False).fit(X, y)
        # No feature can produce a valid (distinct-value) split.
        assert all(t.node_count == 1 for t in forest._trees)
        mean, _ = forest.predict(X[:1])
        assert mean[0] == pytest.approx(float(np.mean(y)))

    def test_max_depth_respected(self):
        X, y = make_data(n=300, d=4, seed=3, noise=0.0)
        forest = RandomForestSurrogate(
            n_estimators=2, max_depth=2, bootstrap=False, max_features=None, seed=0
        ).fit(X, y)
        # Depth-2 binary tree has at most 7 nodes.
        assert all(t.node_count <= 7 for t in forest._trees)

    def test_deterministic_given_seed(self):
        X, y = make_data(n=150, d=5, seed=4)
        f1 = RandomForestSurrogate(n_estimators=5, seed=42).fit(X, y)
        f2 = RandomForestSurrogate(n_estimators=5, seed=42).fit(X, y)
        assert np.array_equal(f1.predict(X)[0], f2.predict(X)[0])

    def test_trees_are_array_backed(self):
        X, y = make_data(n=60, d=3, seed=6)
        forest = RandomForestSurrogate(n_estimators=2, seed=0).fit(X, y)
        for tree in forest._trees:
            assert isinstance(tree, _ArrayTree)
            internal = tree.feature >= 0
            # Children of internal nodes are in range and self-consistent.
            assert np.all(tree.left[internal] > 0)
            assert np.all(tree.right[internal] > 0)
            assert np.all(tree.left[internal] < tree.node_count)
            assert np.all(tree.right[internal] < tree.node_count)
            assert np.all(np.isfinite(tree.threshold[internal]))

    def test_refit_reuses_instance(self):
        X, y = make_data(n=100, d=4, seed=7)
        forest = RandomForestSurrogate(n_estimators=3, seed=0)
        forest.fit(X, y)
        first = forest.predict(X[:5])[0]
        forest.fit(X, y + 1.0)
        second = forest.predict(X[:5])[0]
        assert np.allclose(second - first, 1.0, atol=0.5)


class TestSpeedAssumption:
    def test_levelwise_not_slower_than_recursive_at_scale(self):
        """The whole point: level-wise refits must beat the recursive builder."""
        import time

        X, y = make_data(n=600, d=12, seed=8)
        t0 = time.perf_counter()
        RandomForestSurrogate(seed=0).fit(X, y)
        fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        RecursiveRandomForest(seed=0).fit(X, y)
        slow = time.perf_counter() - t0
        # Conservative bound (CI machines are noisy); locally the ratio is ~5-7x.
        assert fast < slow
