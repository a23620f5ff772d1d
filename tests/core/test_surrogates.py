"""Tests for the surrogate models (random forest, GP, TPE, constant)."""

import numpy as np
import pytest

from oracles import DecisionTreeRegressor
from repro.core.surrogate import (
    ConstantSurrogate,
    GaussianProcessSurrogate,
    RandomForestSurrogate,
    TreeParzenEstimator,
)


def make_regression_data(n=200, d=5, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.5 * X[:, 2] + noise * rng.standard_normal(n)
    return X, y


class TestDecisionTree:
    def test_fits_and_predicts_shape(self):
        X, y = make_regression_data()
        tree = DecisionTreeRegressor(rng=np.random.default_rng(0), max_features=None)
        tree.fit(X, y)
        pred = tree.predict(X)
        assert pred.shape == (X.shape[0],)
        assert tree.node_count > 1

    def test_perfectly_fits_training_data_with_deep_tree(self):
        X, y = make_regression_data(n=80, noise=0.0)
        tree = DecisionTreeRegressor(
            max_depth=30, min_samples_split=2, min_samples_leaf=1,
            max_features=None, rng=np.random.default_rng(0),
        )
        tree.fit(X, y)
        assert np.mean((tree.predict(X) - y) ** 2) < 1e-6

    def test_constant_target_produces_single_leaf(self):
        X = np.random.default_rng(0).uniform(size=(30, 3))
        y = np.full(30, 7.0)
        tree = DecisionTreeRegressor(rng=np.random.default_rng(0))
        tree.fit(X, y)
        assert tree.node_count == 1
        assert np.allclose(tree.predict(X), 7.0)

    def test_respects_max_depth(self):
        X, y = make_regression_data(n=300)
        shallow = DecisionTreeRegressor(max_depth=2, max_features=None, rng=np.random.default_rng(0))
        deep = DecisionTreeRegressor(max_depth=12, max_features=None, rng=np.random.default_rng(0))
        shallow.fit(X, y)
        deep.fit(X, y)
        assert shallow.node_count < deep.node_count

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)


class TestRandomForest:
    def test_better_than_mean_predictor(self):
        X, y = make_regression_data(n=400)
        X_test, y_test = make_regression_data(n=200, seed=1)
        forest = RandomForestSurrogate(n_estimators=15, seed=0)
        forest.fit(X, y)
        mean, std = forest.predict(X_test)
        mse_forest = np.mean((mean - y_test) ** 2)
        mse_const = np.mean((np.mean(y) - y_test) ** 2)
        assert mse_forest < 0.5 * mse_const
        assert np.all(std >= 0)

    def test_uncertainty_larger_away_from_data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-0.3, 0.3, size=(150, 2))
        y = X[:, 0] + X[:, 1]
        forest = RandomForestSurrogate(n_estimators=20, seed=0)
        forest.fit(X, y)
        _, std_in = forest.predict(np.array([[0.0, 0.0]]))
        _, std_out = forest.predict(np.array([[3.0, -3.0]]))
        assert std_out[0] >= std_in[0]

    def test_deterministic_given_seed(self):
        X, y = make_regression_data(n=100)
        f1 = RandomForestSurrogate(n_estimators=5, seed=42).fit(X, y)
        f2 = RandomForestSurrogate(n_estimators=5, seed=42).fit(X, y)
        m1, _ = f1.predict(X[:10])
        m2, _ = f2.predict(X[:10])
        assert np.allclose(m1, m2)

    def test_validation_errors(self):
        forest = RandomForestSurrogate()
        with pytest.raises(RuntimeError):
            forest.predict(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            forest.fit(np.zeros((3, 2)), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            forest.fit(np.array([[np.nan, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            RandomForestSurrogate(n_estimators=0)

    def test_single_point_dataset(self):
        forest = RandomForestSurrogate(n_estimators=3, seed=0)
        forest.fit(np.array([[1.0, 2.0]]), np.array([5.0]))
        mean, std = forest.predict(np.array([[1.0, 2.0]]))
        assert mean[0] == pytest.approx(5.0)


class TestGaussianProcess:
    def test_interpolates_training_points_with_small_noise(self):
        X, y = make_regression_data(n=60, noise=0.0)
        gp = GaussianProcessSurrogate(noise=1e-6, auto_hyperparameters=False)
        gp.fit(X, y)
        mean, std = gp.predict(X)
        assert np.mean((mean - y) ** 2) < 1e-3
        assert np.all(std >= 0)

    def test_uncertainty_grows_away_from_data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-0.5, 0.5, size=(50, 2))
        y = X[:, 0]
        gp = GaussianProcessSurrogate()
        gp.fit(X, y)
        _, std_near = gp.predict(np.array([[0.0, 0.0]]))
        _, std_far = gp.predict(np.array([[5.0, 5.0]]))
        assert std_far[0] > std_near[0]

    def test_reasonable_generalisation(self):
        X, y = make_regression_data(n=300)
        X_test, y_test = make_regression_data(n=100, seed=3)
        gp = GaussianProcessSurrogate()
        gp.fit(X, y)
        mean, _ = gp.predict(X_test)
        mse = np.mean((mean - y_test) ** 2)
        assert mse < 0.5 * np.var(y_test)

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            GaussianProcessSurrogate(noise=0.0)
        with pytest.raises(ValueError):
            GaussianProcessSurrogate(length_scale=-1.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessSurrogate().predict(np.zeros((1, 2)))


class TestTreeParzenEstimator:
    def test_scores_favour_the_good_region(self):
        rng = np.random.default_rng(0)
        X_good = rng.normal(loc=2.0, scale=0.3, size=(40, 2))
        X_bad = rng.normal(loc=-2.0, scale=0.3, size=(160, 2))
        X = np.vstack([X_good, X_bad])
        y = np.concatenate([np.ones(40) * 10.0, np.zeros(160)])
        tpe = TreeParzenEstimator(gamma=0.2)
        tpe.fit(X, y)
        score_good = tpe.score(np.array([[2.0, 2.0]]))[0]
        score_bad = tpe.score(np.array([[-2.0, -2.0]]))[0]
        assert score_good > score_bad

    def test_categorical_columns_use_histograms(self):
        rng = np.random.default_rng(0)
        cats = rng.integers(0, 3, size=200).astype(float)
        y = np.where(cats == 1, 10.0, 0.0) + rng.normal(scale=0.1, size=200)
        X = np.column_stack([cats, rng.uniform(size=200)])
        tpe = TreeParzenEstimator(gamma=0.2, categorical_columns=[0])
        tpe.fit(X, y)
        best_cat = tpe.score(np.array([[1.0, 0.5]]))[0]
        other_cat = tpe.score(np.array([[0.0, 0.5]]))[0]
        assert best_cat > other_cat

    def test_flat_scores_below_min_observations(self):
        tpe = TreeParzenEstimator(min_observations=10)
        X = np.random.default_rng(0).uniform(size=(4, 3))
        tpe.fit(X, np.arange(4.0))
        assert np.allclose(tpe.score(X), 0.0)

    def test_predict_interface(self):
        X, y = make_regression_data(n=50, d=3)
        tpe = TreeParzenEstimator()
        tpe.fit(X, y)
        mean, std = tpe.predict(X[:5])
        assert mean.shape == (5,) and np.allclose(std, 1.0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            TreeParzenEstimator(gamma=0.0)
        with pytest.raises(ValueError):
            TreeParzenEstimator(gamma=1.0)

    def test_score_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TreeParzenEstimator().score(np.zeros((1, 2)))


class TestConstantSurrogate:
    def test_predicts_training_mean(self):
        X, y = make_regression_data(n=50)
        model = ConstantSurrogate()
        model.fit(X, y)
        mean, std = model.predict(X[:7])
        assert np.allclose(mean, np.mean(y))
        assert np.all(std > 0)
