"""Reference ask/tell paths of :class:`~repro.core.optimizer.BayesianOptimizer`.

:class:`FullReencodeOptimizer` is the optimizer without its incremental
encoded-history cache: every fit and every ``ask`` re-encodes the whole
evaluated history from the stored configurations.  The column codecs are
elementwise, so it must propose exactly what the cached optimizer proposes
(``tests/core/test_optimizer_incremental.py``).  :func:`repr_key` is the
original ``repr``-tuple dedup key the raw-value key rows replaced.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.optimizer import BayesianOptimizer
from repro.core.space import Configuration

__all__ = ["FullReencodeOptimizer", "full_reencode", "repr_key"]


def repr_key(config: Configuration) -> tuple:
    """The legacy ``repr``-based dedup key of one configuration."""
    return tuple(sorted((k, repr(v)) for k, v in config.items()))


class FullReencodeOptimizer(BayesianOptimizer):
    """Training data re-derived from the raw history on every request."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._objectives: List[float] = []

    def ingest(
        self, configurations: Sequence[Configuration], objectives: Sequence[float]
    ) -> bool:
        due = super().ingest(configurations, objectives)
        self._objectives.extend(self.objective.fill_failure(obj) for obj in objectives)
        return due

    def training_data(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._encode(self._configs), np.asarray(self._objectives, dtype=float)


def full_reencode(optimizer: BayesianOptimizer) -> FullReencodeOptimizer:
    """Turn a fresh optimizer (built by a search, say) into the reference."""
    if optimizer.num_observations:
        raise ValueError("only an optimizer without history can switch paths")
    optimizer.__class__ = FullReencodeOptimizer
    optimizer._objectives = []
    return optimizer
