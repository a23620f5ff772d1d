"""Fleet fitting and fused prediction must be bit-identical per forest.

:func:`~repro.core.surrogate.random_forest.fit_forest_fleet` builds many
independent forests in one level-wise pass; every forest's node arrays must
equal — bit for bit — what ``forest.fit`` produces on its own, and the
forests' RNGs must end in the same state (so subsequent fits agree too).
:func:`~repro.core.surrogate.random_forest.predict_forest_fleet` must return
exactly the per-forest ``predict`` results.  The multi-campaign batch
runner's bit-identity guarantee rests on these two properties.
"""

import numpy as np
import pytest

from repro.core.surrogate.random_forest import (
    RandomForestSurrogate,
    fit_forest_fleet,
    predict_forest_fleet,
)

TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def dataset(seed, n=140, d=6, quantized=False):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    if quantized:
        # Heavy value ties exercise the distinct-value and tie-guard paths.
        X = np.round(X * 6) / 6
    y = X @ rng.normal(size=d) + 0.05 * rng.normal(size=n)
    return X, y


def assert_forests_equal(a, b):
    assert len(a._trees) == len(b._trees)
    for tree_a, tree_b in zip(a._trees, b._trees):
        for attr in TREE_ARRAYS:
            assert np.array_equal(getattr(tree_a, attr), getattr(tree_b, attr)), attr


class TestFleetFitBitIdentity:
    @pytest.mark.parametrize("num_jobs", [1, 2, 5, 8])
    def test_fleet_fit_equals_solo_fits(self, num_jobs):
        datasets = [dataset(s, n=90 + 23 * s, quantized=(s % 2 == 0)) for s in range(num_jobs)]
        solo = [
            RandomForestSurrogate(n_estimators=4 + (i % 3), seed=10 + i, max_depth=9).fit(X, y)
            for i, (X, y) in enumerate(datasets)
        ]
        fleet = [
            RandomForestSurrogate(n_estimators=4 + (i % 3), seed=10 + i, max_depth=9)
            for i in range(num_jobs)
        ]
        fit_forest_fleet([(m, X, y) for m, (X, y) in zip(fleet, datasets)])
        for a, b in zip(solo, fleet):
            assert b.fitted
            assert_forests_equal(a, b)

    def test_rng_state_advances_identically(self):
        """A refit after a fleet fit equals a refit after a solo fit."""
        X, y = dataset(0)
        X2, y2 = dataset(42, n=110)
        solo = RandomForestSurrogate(seed=3).fit(X, y)
        member = RandomForestSurrogate(seed=3)
        other = RandomForestSurrogate(seed=4)
        fit_forest_fleet([(member, X, y), (other, X, y)])
        solo.fit(X2, y2)
        member.fit(X2, y2)
        assert_forests_equal(solo, member)

    def test_fleet_predictions_equal_solo_predictions(self):
        datasets = [dataset(s) for s in range(4)]
        solo = [RandomForestSurrogate(seed=i).fit(X, y) for i, (X, y) in enumerate(datasets)]
        fleet = [RandomForestSurrogate(seed=i) for i in range(4)]
        fit_forest_fleet([(m, X, y) for m, (X, y) in zip(fleet, datasets)])
        rng = np.random.default_rng(9)
        for a, b in zip(solo, fleet):
            Xc = rng.random((64, 6))
            mean_a, std_a = a.predict(Xc)
            mean_b, std_b = b.predict(Xc)
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(std_a, std_b)

    def test_incompatible_hyperparameters_rejected(self):
        X, y = dataset(0)
        a = RandomForestSurrogate(seed=0, max_depth=9)
        b = RandomForestSurrogate(seed=1, max_depth=12)
        with pytest.raises(ValueError, match="incompatible"):
            fit_forest_fleet([(a, X, y), (b, X, y)])

    def test_duplicate_member_rejected(self):
        X, y = dataset(0)
        a = RandomForestSurrogate(seed=0)
        with pytest.raises(ValueError, match="once"):
            fit_forest_fleet([(a, X, y), (a, X, y)])

    def test_empty_fleet_is_a_no_op(self):
        fit_forest_fleet([])


class TestFleetPredict:
    def test_fused_predict_equals_per_forest_predict(self):
        datasets = [dataset(s, n=70 + 11 * s) for s in range(5)]
        forests = [RandomForestSurrogate(seed=i).fit(X, y) for i, (X, y) in enumerate(datasets)]
        rng = np.random.default_rng(1)
        jobs = [(forest, rng.random((20 + 9 * i, 6))) for i, forest in enumerate(forests)]
        fused = predict_forest_fleet(jobs)
        for (mean_f, std_f), (forest, Xc) in zip(fused, jobs):
            mean, std = forest.predict(Xc)
            assert np.array_equal(mean_f, mean)
            assert np.array_equal(std_f, std)

    def test_single_row_jobs_match(self):
        """One-row scoring must agree between fused, solo and batched paths."""
        X, y = dataset(3)
        forest = RandomForestSurrogate(seed=0).fit(X, y)
        rows = np.random.default_rng(2).random((16, 6))
        batch_mean, batch_std = forest.predict(rows)
        for i in range(16):
            mean, std = forest.predict(rows[i : i + 1])
            assert mean[0] == batch_mean[i] and std[0] == batch_std[i]
            (fleet_result,) = predict_forest_fleet([(forest, rows[i : i + 1])])
            assert fleet_result[0][0] == batch_mean[i]

    def test_unfitted_forest_rejected(self):
        with pytest.raises(RuntimeError):
            predict_forest_fleet([(RandomForestSurrogate(), np.zeros((2, 3)))])

    def test_empty_jobs(self):
        assert predict_forest_fleet([]) == []
