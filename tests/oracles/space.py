"""Scalar reference codecs of :class:`~repro.core.space.SearchSpace`.

The pre-columnar per-element implementations of the four space codecs: the
ground truth for the property-based equivalence tests
(``tests/core/test_space_vectorized.py``) and the per-element cost profile of
the legacy path in ``benchmarks/bench_ask_tell_scaling.py``.  Semantics match
the vectorised codecs (including the log clip in ``to_numeric_array``) up to
≤1-ulp differences between ``math.log``/``math.exp`` and ``np.log``/``np.exp``.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping, Sequence

import numpy as np

from repro.core.space import (
    CategoricalParameter,
    Configuration,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)

__all__ = [
    "from_unit_array_loop",
    "to_numeric_array_loop",
    "to_one_hot_array_loop",
    "to_unit_array_loop",
]


def to_unit_array_loop(
    space: SearchSpace, configs: Sequence[Mapping[str, Any]]
) -> np.ndarray:
    """Reference scalar implementation of :meth:`SearchSpace.to_unit_array`."""
    params = space.parameters
    arr = np.empty((len(configs), len(params)), dtype=float)
    for i, config in enumerate(configs):
        for j, p in enumerate(params):
            arr[i, j] = p.to_unit(config[p.name])
    return arr


def from_unit_array_loop(space: SearchSpace, arr: np.ndarray) -> List[Configuration]:
    """Reference scalar implementation of :meth:`SearchSpace.from_unit_array`."""
    params = space.parameters
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if arr.shape[1] != len(params):
        raise ValueError(f"expected {len(params)} columns, got {arr.shape[1]}")
    return [{p.name: p.from_unit(float(u)) for p, u in zip(params, row)} for row in arr]


def to_numeric_array_loop(
    space: SearchSpace, configs: Sequence[Mapping[str, Any]]
) -> np.ndarray:
    """Reference scalar implementation of :meth:`SearchSpace.to_numeric_array`."""
    params = space.parameters
    arr = np.empty((len(configs), len(params)), dtype=float)
    for i, config in enumerate(configs):
        for j, p in enumerate(params):
            value = config[p.name]
            if isinstance(p, (RealParameter, IntegerParameter)):
                v = float(value)
                arr[i, j] = math.log(max(v, p.low)) if p.log else v
            else:
                arr[i, j] = float(p.index_of(value))
    return arr


def to_one_hot_array_loop(
    space: SearchSpace, configs: Sequence[Mapping[str, Any]]
) -> np.ndarray:
    """Reference scalar implementation of :meth:`SearchSpace.to_one_hot_array`."""
    arr = np.zeros((len(configs), space.one_hot_dimension()), dtype=float)
    for i, config in enumerate(configs):
        col = 0
        for p in space.parameters:
            value = config[p.name]
            if isinstance(p, CategoricalParameter):
                arr[i, col + p.index_of(value)] = 1.0
                col += len(p.categories)
            else:
                arr[i, col] = p.to_unit(value)
                col += 1
    return arr
