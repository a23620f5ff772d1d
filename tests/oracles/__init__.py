"""Reference implementations the fast paths in ``repro`` are checked against.

Each oracle is the straightforward (slow) form of a production layer, kept
only to be compared against: the identity and equivalence tests import them
as ``from oracles import ...`` (the ``tests`` directory is on ``sys.path``
under pytest), and ``benchmarks/bench_ask_tell_scaling.py`` assembles its
legacy path from them.  Nothing in ``src/`` imports this package.

* :mod:`oracles.space` — per-element ``*_array_loop`` space codecs;
* :mod:`oracles.optimizer` — the optimizer that re-encodes its full history
  on every interaction, and the ``repr``-tuple dedup key;
* :mod:`oracles.gaussian_process` — the full-refit GP and the frozen
  hyperparameter refit the rank-1 extension must match;
* :mod:`oracles.random_forest` — the recursive CART tree and the forest
  built from it;
* :mod:`oracles.history` — the row-major search history.
"""

from oracles.gaussian_process import FullRefitGP, refit_with_current_hyperparameters
from oracles.history import RowHistoryReference
from oracles.optimizer import FullReencodeOptimizer, full_reencode, repr_key
from oracles.random_forest import DecisionTreeRegressor, RecursiveRandomForest
from oracles.space import (
    from_unit_array_loop,
    to_numeric_array_loop,
    to_one_hot_array_loop,
    to_unit_array_loop,
)

__all__ = [
    "DecisionTreeRegressor",
    "FullReencodeOptimizer",
    "FullRefitGP",
    "RecursiveRandomForest",
    "RowHistoryReference",
    "from_unit_array_loop",
    "full_reencode",
    "refit_with_current_hyperparameters",
    "repr_key",
    "to_numeric_array_loop",
    "to_one_hot_array_loop",
    "to_unit_array_loop",
]
