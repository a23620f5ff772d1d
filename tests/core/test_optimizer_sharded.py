"""Sharded candidate scoring must be invisible in the proposals.

``BayesianOptimizer(score_shards=k)`` splits the candidate matrix into ``k``
row-contiguous shards, scores them separately (optionally on an executor)
and concatenates.  RF and GP predictions are row-local, so any shard count
must produce **bit-identical** proposal trajectories — mirroring the
full-re-encode regression style of ``test_optimizer_incremental``.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import make_wide_space as make_space, wide_objective as fake_objective
from repro.core.optimizer import BayesianOptimizer, CandidateScoringError


def run_ask_tell(score_shards, surrogate, seed, rounds=7, batch=4, executor=None):
    opt = BayesianOptimizer(
        make_space(),
        surrogate=surrogate,
        num_candidates=96,
        n_initial_points=5,
        score_shards=score_shards,
        score_executor=executor,
        seed=seed,
    )
    trajectory = []
    for _ in range(rounds):
        proposals = opt.ask(batch)
        trajectory.append(proposals)
        opt.tell(proposals, [fake_objective(c) for c in proposals])
    return trajectory


class TestShardedAskIdentity:
    @pytest.mark.parametrize("surrogate", ["RF", "GP"])
    @given(shards=st.integers(min_value=2, max_value=9), seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_any_shard_count_is_bit_identical(self, surrogate, shards, seed):
        reference = run_ask_tell(1, surrogate, seed)
        sharded = run_ask_tell(shards, surrogate, seed)
        assert sharded == reference  # values, types and order

    @pytest.mark.parametrize("surrogate", ["RF", "GP"])
    def test_executor_mapped_shards_are_bit_identical(self, surrogate):
        reference = run_ask_tell(1, surrogate, seed=5)
        with ThreadPoolExecutor(max_workers=2) as executor:
            sharded = run_ask_tell(4, surrogate, seed=5, executor=executor)
        assert sharded == reference

    def test_more_shards_than_candidates_is_safe(self):
        # score_shards above the pool size degrades to one row per shard.
        reference = run_ask_tell(1, "RF", seed=9)
        sharded = run_ask_tell(500, "RF", seed=9)
        assert sharded == reference

    def test_predict_candidates_concatenation_matches_single_call(self):
        space = make_space()
        opt = BayesianOptimizer(space, n_initial_points=5, seed=0)
        rng = np.random.default_rng(0)
        configs = space.sample(40, rng)
        opt.tell(configs, [fake_objective(c) for c in configs])
        encoded = space.to_numeric_array(space.sample_columns(128, rng))
        mean_ref, std_ref = opt.surrogate.predict(encoded)
        for shards in (2, 3, 7):
            opt.score_shards = shards
            mean, std = opt._predict_candidates(encoded)
            assert np.array_equal(mean, mean_ref)
            assert np.array_equal(std, std_ref)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(make_space(), score_shards=0)


class TestScoringErrorContext:
    """Regression: a shard ``predict`` crash used to lose its shard.

    A bare exception escaping ``score_executor.map`` said nothing about
    which shard (or shape, or surrogate) died; ``_predict_shard`` now wraps
    it in :class:`CandidateScoringError` carrying that context, and the
    wrapper propagates unchanged through the executor so the runner's
    quarantine records it against the owning campaign.
    """

    @staticmethod
    def prepared_optimizer(**kwargs):
        space = make_space()
        opt = BayesianOptimizer(space, n_initial_points=5, seed=0, **kwargs)
        rng = np.random.default_rng(0)
        configs = space.sample(40, rng)
        opt.tell(configs, [fake_objective(c) for c in configs])
        return opt, space.to_numeric_array(space.sample_columns(64, rng))

    def test_shard_failure_carries_context(self, monkeypatch):
        opt, encoded = self.prepared_optimizer(score_shards=4)

        def explode(X):
            raise FloatingPointError("singular factor")

        monkeypatch.setattr(opt.surrogate, "predict", explode)
        with pytest.raises(CandidateScoringError) as caught:
            opt._predict_candidates(encoded)
        error = caught.value
        assert error.shard_index == 0
        assert error.num_shards == 4
        assert error.rows == 16
        assert error.surrogate == type(opt.surrogate).__name__
        assert isinstance(error.__cause__, FloatingPointError)
        assert "shard 1/4" in str(error)
        assert "16 rows" in str(error)

    def test_wrapper_survives_the_executor_unchanged(self, monkeypatch):
        with ThreadPoolExecutor(max_workers=2) as executor:
            opt, encoded = self.prepared_optimizer(
                score_shards=4, score_executor=executor
            )
            real = opt.surrogate.predict
            calls = {"n": 0}

            def explode_on_third(X):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise FloatingPointError("singular factor")
                return real(X)

            monkeypatch.setattr(opt.surrogate, "predict", explode_on_third)
            with pytest.raises(CandidateScoringError) as caught:
                opt._predict_candidates(encoded)
        assert caught.value.shard_index == 2
        assert caught.value.num_shards == 4

    def test_nested_wrapping_is_not_double_applied(self, monkeypatch):
        opt, encoded = self.prepared_optimizer(score_shards=2)
        inner = CandidateScoringError(
            shard_index=7, num_shards=9, rows=3, surrogate="X", cause=ValueError("v")
        )

        def reraise(X):
            raise inner

        monkeypatch.setattr(opt.surrogate, "predict", reraise)
        with pytest.raises(CandidateScoringError) as caught:
            opt._predict_candidates(encoded)
        assert caught.value is inner  # re-raised, not re-wrapped
