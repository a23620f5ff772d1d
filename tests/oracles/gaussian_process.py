"""Full-refit references for the incremental Gaussian process.

:class:`FullRefitGP` is the GP before its rank-1 Cholesky extension: it
advertises no partial-fit support, so the optimizer refits it from scratch on
every update, and any ``partial_fit`` call falls back to a full reference fit
(hyperparameters refreshed).  :func:`refit_with_current_hyperparameters`
refactorises a fitted GP from scratch while *keeping* its hyperparameters —
the kernel a sequence of ``partial_fit`` extensions must reproduce to
floating-point rounding.
"""

from __future__ import annotations

import numpy as np

from repro.core.surrogate import GaussianProcessSurrogate

__all__ = ["FullRefitGP", "refit_with_current_hyperparameters"]


class FullRefitGP(GaussianProcessSurrogate):
    """A GP whose every update is a full, hyperparameter-refreshing refit."""

    supports_partial_fit = False

    def partial_fit_plan(self, total_rows: int) -> str:
        return "full"


def refit_with_current_hyperparameters(
    gp: GaussianProcessSurrogate, X: np.ndarray, y: np.ndarray
) -> GaussianProcessSurrogate:
    """Refit ``gp`` on ``(X, y)`` from scratch with its current hyperparameters.

    A :meth:`~GaussianProcessSurrogate.partial_fit` sequence and this refit
    factorise the same kernel, so their posteriors must agree to rounding.
    Mutates and returns ``gp`` (pass a copy to keep the original).
    """
    if not gp.fitted:
        raise RuntimeError("the GP has not been fitted")
    X, y = gp._validate(X, y)
    y_n = gp._normalize_targets(y)
    gp._store_training_set(X, y)
    gp._factorize_full(y_n)
    return gp
