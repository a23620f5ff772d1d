"""The public option surface of the optimizer, search, surrogates and VAE fleet.

Each constructor takes exactly these options, all plain keywords.  The
reference paths the fast layers are checked against live in
``tests/oracles`` rather than behind switches here, so a new option must be
a deliberate change to this list.
"""

import inspect

import pytest

from repro.core.optimizer import BayesianOptimizer
from repro.core.search import CBOSearch
from repro.core.surrogate import GaussianProcessSurrogate, RandomForestSurrogate
from repro.core.vae.tvae import VAEFleet

OPTIONS = {
    BayesianOptimizer.__init__: [
        "space",
        "surrogate",
        "prior",
        "kappa",
        "num_candidates",
        "n_initial_points",
        "encoding",
        "liar_strategy",
        "random_sampling",
        "refit_interval",
        "score_shards",
        "score_executor",
        "objective",
        "seed",
    ],
    CBOSearch.__init__: [
        "space",
        "run_function",
        "num_workers",
        "surrogate",
        "prior",
        "kappa",
        "num_candidates",
        "n_initial_points",
        "liar_strategy",
        "overhead",
        "failure_duration",
        "objective",
        "random_sampling",
        "refit_interval",
        "score_shards",
        "score_executor",
        "evaluator_factory",
        "prior_refresh_interval",
        "prior_refresh_top_k",
        "prior_refresh_epochs",
        "prior_refresh_uniform_fraction",
        "seed",
    ],
    GaussianProcessSurrogate.__init__: [
        "noise",
        "length_scale",
        "auto_hyperparameters",
        "normalize_y",
        "refresh_growth",
    ],
    RandomForestSurrogate.__init__: [
        "n_estimators",
        "max_depth",
        "min_samples_split",
        "min_samples_leaf",
        "max_features",
        "bootstrap",
        "seed",
    ],
    VAEFleet.fit: ["datasets", "epochs", "batch_size", "lr"],
}


@pytest.mark.parametrize("function", list(OPTIONS), ids=lambda f: f.__qualname__)
def test_option_surface_is_fixed(function):
    params = inspect.signature(function).parameters
    assert list(params)[1:] == OPTIONS[function]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
