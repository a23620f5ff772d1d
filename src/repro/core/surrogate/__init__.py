"""Surrogate models for Bayesian optimization.

Three surrogate families are used in the paper's experiments:

* :class:`~repro.core.surrogate.random_forest.RandomForestSurrogate` — the
  default DeepHyper surrogate ("RF"); cheap to update, uncertainty from the
  spread of per-tree predictions.
* :class:`~repro.core.surrogate.gaussian_process.GaussianProcessSurrogate` —
  the "GP" alternative (and the model GPtune relies on); accurate but with
  :math:`O(n^3)` update cost, which is what degrades worker utilisation in
  Fig. 4 (d)/(f).
* :class:`~repro.core.surrogate.tpe.TreeParzenEstimator` — the density-ratio
  model HiPerBOt uses; not a regression surrogate but exposed through a
  compatible scoring interface.

All models are implemented from scratch on NumPy (no scikit-learn available in
this environment) behind the common
:class:`~repro.core.surrogate.base.Surrogate` interface.
"""

from repro.core.surrogate.base import Surrogate, ConstantSurrogate
from repro.core.surrogate.random_forest import RandomForestSurrogate
from repro.core.surrogate.gaussian_process import (
    GaussianProcessSurrogate,
    GPFleet,
    gp_fleet_key,
)
from repro.core.surrogate.tpe import TreeParzenEstimator

__all__ = [
    "ConstantSurrogate",
    "GaussianProcessSurrogate",
    "GPFleet",
    "RandomForestSurrogate",
    "Surrogate",
    "TreeParzenEstimator",
    "gp_fleet_key",
]
