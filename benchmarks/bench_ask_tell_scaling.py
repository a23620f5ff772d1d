"""Real (wall-clock) ask/tell latency vs history size — the columnar speedup.

Unlike the campaign benchmarks, which operate in *virtual* search time with a
modelled manager overhead, this benchmark measures the **real** Python-side
cost of one optimizer interaction (``ask`` a batch of 8 + ``tell`` the
results) as a function of the number of evaluated configurations, for the RF
and GP surrogates with the paper-scale 512-candidate ask.

Two code paths are compared at each history size:

* ``columnar`` — the current pipeline: columnar candidate sampling, vectorised
  encodings, raw-value dedup keys, the incremental encoded-history cache, the
  level-wise random-forest builder, and (for GP) the rank-1 incremental
  Cholesky update in ``tell``.
* ``legacy`` — a faithful emulation of the pre-columnar code path:
  row-major (dict) candidate sampling, per-element ``*_loop`` encoders,
  ``repr``-tuple dedup keys computed per candidate per ask, full-history
  re-encoding on every interaction, the recursive random-forest builder, and
  a from-scratch O(n³) GP refit on every tell.  Its pieces are the reference
  implementations in ``tests/oracles``.

A second section benchmarks the columnar :class:`~repro.core.history.SearchHistory`
itself — append plus the derived aggregations (objectives, incumbent
trajectory, top-quantile selection, a 120-point time-grid resolution) —
against a row-major reference implementation looping over ``Evaluation``
records.

Results are written to ``BENCH_ask_tell.json`` (repo root by default) so
future PRs can track the trajectory.  Acceptance bars: ≥5× mean ask+tell
reduction at history size 1000 with RF (the columnar PR), and ≥3× mean tell
reduction at history size 1000 with GP (the incremental-Cholesky PR).

Run with::

    PYTHONPATH=src python benchmarks/bench_ask_tell_scaling.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).parent))  # for `common` when run directly
sys.path.insert(0, str(REPO_ROOT / "tests"))  # the legacy path's `oracles`

from oracles import (
    FullRefitGP,
    RecursiveRandomForest,
    RowHistoryReference,
    repr_key,
    to_numeric_array_loop,
    to_one_hot_array_loop,
    to_unit_array_loop,
)
from repro.core.history import SearchHistory
from repro.core.optimizer import BayesianOptimizer
from repro.core.space import SearchSpace
from repro.core.surrogate import RandomForestSurrogate
from repro.hep import HEPWorkflowProblem

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_ask_tell.json"

SETUP = "4n-2s-20p"
NUM_CANDIDATES = 512
BATCH_SIZE = 8
HISTORY_SIZES = (100, 500, 1000)
SURROGATES = ("RF", "GP")


class LegacyPathOptimizer(BayesianOptimizer):
    """Pre-columnar ask/tell path, reconstructed for baseline measurements.

    Reproduces the original cost profile: candidates are sampled as dicts,
    dedup keys are ``repr`` tuples recomputed per candidate per ask, all
    encodings go through the per-element ``*_loop`` reference codecs, and the
    full history is re-encoded from scratch on every ``ask`` and every
    refitting ``tell``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._objectives = []
        self._legacy_keys = set()

    def _encode_loop(self, configs):
        if self.encoding == "one_hot":
            return to_one_hot_array_loop(self.space, configs)
        return to_numeric_array_loop(self.space, configs)

    def tell(self, configurations, objectives):
        if len(configurations) != len(objectives):
            raise ValueError("configurations and objectives must have equal length")
        if not configurations:
            return
        start = time.perf_counter()
        for config, obj in zip(configurations, objectives):
            self._configs.append(dict(config))
            self._objectives.append(self.objective.fill_failure(obj))
            self._legacy_keys.add(repr_key(config))
            self._new_since_fit += 1
        should_fit = (
            not self.random_sampling
            and self.num_observations >= self.n_initial_points
            and (not self.surrogate.fitted or self._new_since_fit >= self.refit_interval)
        )
        if should_fit:
            X = self._encode_loop(self._configs)
            y = np.asarray(self._objectives, dtype=float)
            self.surrogate.fit(X, y)
            self.num_fits += 1
            self._new_since_fit = 0
        self.last_tell_duration = time.perf_counter() - start

    def ask(self, n=1):
        if n < 1:
            raise ValueError("n must be >= 1")
        start = time.perf_counter()
        use_model = (
            not self.random_sampling
            and self.surrogate.fitted
            and self.num_observations >= self.n_initial_points
        )
        if not use_model:
            proposals = self._sample_unique_legacy(n)
            self.last_ask_duration = time.perf_counter() - start
            return proposals
        candidates = self.space.sample(self.num_candidates, self.rng, prior=self.prior)
        fresh = [c for c in candidates if repr_key(c) not in self._legacy_keys]
        if len(fresh) < n:
            fresh.extend(self._sample_unique_legacy(n - len(fresh)))
        encoded = self._encode_loop(fresh)
        unit = to_unit_array_loop(self.space, fresh)
        train_X = self._encode_loop(self._configs)
        train_y = np.asarray(self._objectives, dtype=float)
        indices = self.liar.select(
            n,
            surrogate=self.surrogate,
            acquisition=self.acquisition,
            candidates_encoded=encoded,
            candidates_unit=unit,
            train_X=train_X,
            train_y=train_y,
        )
        proposals = [fresh[i] for i in indices]
        self.last_ask_duration = time.perf_counter() - start
        return proposals

    def _sample_unique_legacy(self, n):
        proposals = []
        attempts = 0
        while len(proposals) < n and attempts < 20:
            batch = self.space.sample(max(n, 8), self.rng, prior=self.prior)
            for config in batch:
                if len(proposals) >= n:
                    break
                if repr_key(config) not in self._legacy_keys:
                    proposals.append(config)
            attempts += 1
        while len(proposals) < n:
            proposals.extend(self.space.sample(n - len(proposals), self.rng, prior=self.prior))
        return proposals[:n]


def _make_optimizer(path: str, surrogate: str, space: SearchSpace, seed: int):
    if path == "columnar":
        # "GP" resolves to the incremental (rank-1 Cholesky) GP by default.
        model = RandomForestSurrogate(seed=seed) if surrogate == "RF" else "GP"
        return BayesianOptimizer(
            space,
            surrogate=model,
            num_candidates=NUM_CANDIDATES,
            n_initial_points=10,
            refit_interval=1,
            seed=seed,
        )
    model = RecursiveRandomForest(seed=seed) if surrogate == "RF" else FullRefitGP()
    return LegacyPathOptimizer(
        space,
        surrogate=model,
        num_candidates=NUM_CANDIDATES,
        n_initial_points=10,
        refit_interval=1,
        seed=seed,
    )


def measure(
    path: str,
    surrogate: str,
    history_size: int,
    space: SearchSpace,
    iterations: int,
    seed: int = 0,
) -> Dict[str, float]:
    """Mean per-interaction ask/tell wall-clock at a fixed history size."""
    rng = np.random.default_rng(seed)
    opt = _make_optimizer(path, surrogate, space, seed)
    seed_configs = space.sample(history_size, rng)
    objective_of = lambda i: float(np.sin(0.37 * i) - 0.001 * i)
    opt.tell(seed_configs, [objective_of(i) for i in range(history_size)])

    ask_times: List[float] = []
    tell_times: List[float] = []
    base = history_size
    for it in range(iterations):
        proposals = opt.ask(BATCH_SIZE)
        ask_times.append(opt.last_ask_duration)
        opt.tell(proposals, [objective_of(base + it * BATCH_SIZE + j) for j in range(len(proposals))])
        tell_times.append(opt.last_tell_duration)
    return {
        "ask_mean_s": float(np.mean(ask_times)),
        "tell_mean_s": float(np.mean(tell_times)),
        "ask_tell_mean_s": float(np.mean(ask_times) + np.mean(tell_times)),
    }


def measure_history(history_size: int, space: SearchSpace, seed: int = 0) -> Dict[str, object]:
    """Append + aggregation wall-clock of the columnar history vs the row loop."""
    rng = np.random.default_rng(seed)
    configs = space.sample(history_size, rng)
    runtimes = np.exp(rng.normal(4.0, 0.5, size=history_size))
    runtimes[rng.random(history_size) < 0.05] = float("nan")
    grid = np.linspace(0.0, float(history_size), 120)

    def workload(history, vectorized: bool) -> Dict[str, float]:
        timings = {}
        start = time.perf_counter()
        for i, (config, rt) in enumerate(zip(configs, runtimes)):
            history.record(config, rt, float(i), float(i + 1), worker=i % 8)
        timings["append_s"] = time.perf_counter() - start
        start = time.perf_counter()
        history.objectives()
        history.incumbent_trajectory()
        history.top_quantile(0.10)
        if vectorized:
            history.incumbent_at(grid)
        else:
            for t in grid:
                history.best_runtime_at(t)
        timings["aggregate_s"] = time.perf_counter() - start
        timings["total_s"] = timings["append_s"] + timings["aggregate_s"]
        return timings

    columnar = workload(SearchHistory(space), vectorized=True)
    legacy = workload(RowHistoryReference(space), vectorized=False)
    return {
        "history_size": history_size,
        "columnar": columnar,
        "legacy": legacy,
        "speedup_total": legacy["total_s"] / max(columnar["total_s"], 1e-12),
        "speedup_aggregate": legacy["aggregate_s"] / max(columnar["aggregate_s"], 1e-12),
    }


def run_benchmark(history_sizes=HISTORY_SIZES, iterations: int = 5, output: Path = DEFAULT_OUTPUT):
    problem = HEPWorkflowProblem.from_setup(SETUP, seed=1)
    space = problem.space
    results = []
    for surrogate in SURROGATES:
        for history_size in history_sizes:
            entry = {"surrogate": surrogate, "history_size": history_size}
            for path in ("columnar", "legacy"):
                entry[path] = measure(path, surrogate, history_size, space, iterations)
            entry["speedup_ask"] = entry["legacy"]["ask_mean_s"] / max(
                entry["columnar"]["ask_mean_s"], 1e-12
            )
            entry["speedup_tell"] = entry["legacy"]["tell_mean_s"] / max(
                entry["columnar"]["tell_mean_s"], 1e-12
            )
            entry["speedup_ask_tell"] = entry["legacy"]["ask_tell_mean_s"] / max(
                entry["columnar"]["ask_tell_mean_s"], 1e-12
            )
            results.append(entry)
            print(
                f"{surrogate:3s} N={history_size:5d}  "
                f"columnar {entry['columnar']['ask_tell_mean_s']*1e3:8.2f} ms  "
                f"legacy {entry['legacy']['ask_tell_mean_s']*1e3:8.2f} ms  "
                f"speedup {entry['speedup_ask_tell']:5.2f}x "
                f"(ask alone {entry['speedup_ask']:5.2f}x, tell alone {entry['speedup_tell']:5.2f}x)"
            )

    history_results = []
    for history_size in history_sizes:
        hist_entry = measure_history(history_size, space)
        history_results.append(hist_entry)
        print(
            f"history N={history_size:5d}  "
            f"columnar {hist_entry['columnar']['total_s']*1e3:8.2f} ms  "
            f"legacy {hist_entry['legacy']['total_s']*1e3:8.2f} ms  "
            f"speedup {hist_entry['speedup_total']:5.2f}x "
            f"(aggregations alone {hist_entry['speedup_aggregate']:5.2f}x)"
        )

    target = next(
        (
            e
            for e in results
            if e["surrogate"] == "RF" and e["history_size"] == max(history_sizes)
        ),
        None,
    )
    gp_target = next(
        (
            e
            for e in results
            if e["surrogate"] == "GP" and e["history_size"] == max(history_sizes)
        ),
        None,
    )
    payload = {
        "benchmark": "ask_tell_scaling",
        "setup": SETUP,
        "num_candidates": NUM_CANDIDATES,
        "batch_size": BATCH_SIZE,
        "iterations": iterations,
        "refit_interval": 1,
        "description": (
            "Mean real wall-clock of one optimizer interaction (ask a batch of "
            f"{BATCH_SIZE} + tell the results, surrogate refit every tell) at a "
            "fixed history size. 'columnar' is the current pipeline (vectorised "
            "codecs, incremental encoded-history cache, level-wise RF, rank-1 "
            "incremental GP Cholesky); 'legacy' emulates the pre-columnar path "
            "(dict candidates, per-element encoders, repr keys, full "
            "re-encoding, recursive RF, from-scratch GP refit). The 'history' "
            "section benchmarks the columnar SearchHistory (append + derived "
            "aggregations) against a row-major reference."
        ),
        "results": results,
        "history": history_results,
        "acceptance": {
            "criterion": f"speedup_ask_tell >= 5.0 at history_size={max(history_sizes)} with RF",
            "speedup_ask_tell": target["speedup_ask_tell"] if target else None,
            "passed": bool(target and target["speedup_ask_tell"] >= 5.0),
        },
        "acceptance_gp_incremental": {
            "criterion": f"speedup_tell >= 3.0 at history_size={max(history_sizes)} with GP",
            "speedup_tell": gp_target["speedup_tell"] if gp_target else None,
            "passed": bool(gp_target and gp_target["speedup_tell"] >= 3.0),
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    if target:
        status = "PASS" if payload["acceptance"]["passed"] else "FAIL"
        print(
            f"acceptance ({payload['acceptance']['criterion']}): "
            f"{target['speedup_ask_tell']:.2f}x -> {status}"
        )
    if gp_target:
        status = "PASS" if payload["acceptance_gp_incremental"]["passed"] else "FAIL"
        print(
            f"acceptance ({payload['acceptance_gp_incremental']['criterion']}): "
            f"{gp_target['speedup_tell']:.2f}x -> {status}"
        )
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer iterations and history sizes (smoke test)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON output path"
    )
    args = parser.parse_args(argv)
    if args.quick:
        return run_benchmark(history_sizes=(100, 300), iterations=2, output=args.output)
    return run_benchmark(output=args.output)


if __name__ == "__main__":
    main()
