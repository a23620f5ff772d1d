"""Multi-core runner scaling: candidate scoring and end-to-end campaigns.

Measures the ``step_workers`` thread pool of
:class:`~repro.service.runner.CampaignRunner` over 1/2/4/8 workers:

* **scoring** — one optimizer's sharded candidate scoring
  (``score_shards``) mapped over a thread-pool ``score_executor``;
* **end-to-end** — a mixed RF/GP cohort through the runner, whose pool
  scores each tick's GP chunks concurrently (fusion groups always span the
  whole fleet).

Every mode asserts **bit-identity** against the 1-worker run in-benchmark —
worker count may only change wall-clock (`docs/architecture.md` §15).  The
output records ``cpu_count`` and the previous committed run under
``previous``; on boxes with fewer cores than workers the curves measure
thread overhead rather than speedup.

Run with::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for `common` when run directly

from repro.core.optimizer import BayesianOptimizer
from repro.core.search import CBOSearch
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate import RandomForestSurrogate
from repro.service import CampaignRunner, CampaignSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_parallel.json"

WORKER_COUNTS = (1, 2, 4, 8)


def make_space() -> SearchSpace:
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 1024, log=True),
            RealParameter("rate", 0.1, 50.0, log=True),
            CategoricalParameter("pool", ("fifo", "prio", "wait")),
            CategoricalParameter.boolean("busy"),
        ]
    )


def run_function(config) -> float:
    value = abs(math.log(config["batch"]) - 4.0) + 0.3 * math.log(config["rate"])
    value += 1.0 if config["pool"] == "wait" else 0.0
    return 30.0 + 12.0 * value


def make_specs(num_campaigns: int, max_evaluations: int) -> List[CampaignSpec]:
    """A mixed RF/GP cohort (stateful: build fresh per run)."""
    space = make_space()
    specs = []
    for i in range(num_campaigns):
        if i % 3 == 2:
            search = CBOSearch(
                space,
                run_function,
                num_workers=4,
                surrogate="GP",
                num_candidates=32,
                n_initial_points=4,
                seed=100 + i,
            )
        else:
            search = CBOSearch(
                space,
                run_function,
                num_workers=6,
                surrogate=RandomForestSurrogate(n_estimators=6, seed=100 + i),
                num_candidates=48,
                n_initial_points=5,
                seed=100 + i,
            )
        specs.append(
            CampaignSpec(
                search=search,
                max_time=float("inf"),
                max_evaluations=max_evaluations,
                label=f"campaign-{i}",
            )
        )
    return specs


def assert_identical(a, b) -> None:
    assert len(a.history) == len(b.history)
    for ev_a, ev_b in zip(a.history, b.history):
        assert ev_a.configuration == ev_b.configuration
        assert ev_a.submitted == ev_b.submitted
        assert ev_a.completed == ev_b.completed
    assert a.busy_intervals == b.busy_intervals
    assert a.best_configuration == b.best_configuration


def best_of(reps: int, thunk) -> float:
    return min(thunk() for _ in range(reps))


def bench_scoring(reps: int, workers=WORKER_COUNTS) -> Dict:
    """Sharded candidate scoring over a thread-pool score_executor."""
    space = make_space()
    opt = BayesianOptimizer(
        space,
        surrogate=RandomForestSurrogate(n_estimators=24, seed=3),
        n_initial_points=5,
        seed=3,
    )
    rng = np.random.default_rng(3)
    train = space.sample(400, rng)
    opt.tell(train, [run_function(c) for c in train])
    encoded = space.to_numeric_array(space.sample_columns(20_000, rng))
    mean_ref, std_ref = opt.surrogate.predict(encoded)
    curve = {}
    for count in workers:
        executor = ThreadPoolExecutor(max_workers=count) if count > 1 else None
        opt.score_shards = count
        opt.score_executor = executor

        def timed():
            start = time.perf_counter()
            mean, std = opt._predict_candidates(encoded)
            elapsed = time.perf_counter() - start
            assert np.array_equal(mean, mean_ref)  # sharding is invisible
            assert np.array_equal(std, std_ref)
            return elapsed

        curve[str(count)] = {
            "seconds": round(best_of(reps, timed), 4),
            "bit_identical": True,
            "rows": int(encoded.shape[0]),
        }
        if executor is not None:
            executor.shutdown()
    opt.score_shards, opt.score_executor = 1, None
    return curve


def bench_end_to_end(
    num_campaigns: int, max_evaluations: int, reps: int, workers=WORKER_COUNTS
) -> Dict:
    """Whole campaigns; spare workers score the GP chunks concurrently."""
    baseline = CampaignRunner(
        make_specs(num_campaigns, max_evaluations), step_workers=1
    ).run()
    curve = {}
    for count in workers:

        def timed(count=count):
            runner = CampaignRunner(
                make_specs(num_campaigns, max_evaluations), step_workers=count
            )
            start = time.perf_counter()
            results = runner.run()
            elapsed = time.perf_counter() - start
            for a, b in zip(baseline, results):
                assert_identical(a, b)
            return elapsed

        curve[str(count)] = {
            "seconds": round(best_of(reps, timed), 4),
            "bit_identical": True,
        }
    return curve


def previous_run(output: Path):
    """The committed run this one replaces (for the BENCH file's history)."""
    if not output.exists():
        return None
    old = json.loads(output.read_text())
    return {
        "cpu_count": old.get("cpu_count"),
        "curves": {
            name: {count: entry["seconds"] for count, entry in curve.items()}
            for name, curve in old.get("curves", {}).items()
        },
    }


def run_benchmark(
    num_campaigns: int = 8,
    max_evaluations: int = 28,
    reps: int = 2,
    workers=WORKER_COUNTS,
    output: Path = DEFAULT_OUTPUT,
):
    previous = previous_run(output)
    curves = {}
    print(f"cohort: {num_campaigns} campaigns x {max_evaluations} evaluations")
    curves["scoring"] = bench_scoring(reps, workers)
    curves["end_to_end"] = bench_end_to_end(
        num_campaigns, max_evaluations, reps, workers
    )
    for name, curve in curves.items():
        base = curve[str(workers[0])]["seconds"]
        line = "  ".join(
            f"{count}w {entry['seconds']:6.3f}s ({base / entry['seconds']:.2f}x)"
            for count, entry in curve.items()
        )
        print(f"{name:14s} {line}")
    bit_identical = all(
        entry["bit_identical"] for curve in curves.values() for entry in curve.values()
    )
    payload = {
        "benchmark": "parallel_step",
        "num_campaigns": num_campaigns,
        "max_evaluations": max_evaluations,
        "reps": reps,
        "cpu_count": os.cpu_count(),
        "description": (
            "Multi-core CampaignRunner scaling over step_workers in "
            f"{list(workers)}: thread-pool sharded candidate scoring "
            "(score_executor) and end-to-end campaigns whose GP scoring "
            "chunks run on the runner's pool. Every mode asserts bitwise "
            "identity to the 1-worker run in-benchmark. On boxes with fewer "
            "cores than workers the curves measure thread overhead, not "
            "speedup."
        ),
        "curves": curves,
        "previous": previous,
        "acceptance": {
            "criterion": "all worker counts bit-identical to 1 worker in every mode",
            "bit_identical": bit_identical,
            "passed": bit_identical,
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    status = "PASS" if payload["acceptance"]["passed"] else "FAIL"
    print(f"acceptance ({payload['acceptance']['criterion']}): {status}")
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small cohort, 1 rep, 1/2/4 workers"
    )
    parser.add_argument("--reps", type=int, default=2, help="repetitions (best-of)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    if args.quick:
        return run_benchmark(
            num_campaigns=4,
            max_evaluations=16,
            reps=1,
            workers=(1, 2, 4),
            output=args.output,
        )
    return run_benchmark(reps=args.reps, output=args.output)


if __name__ == "__main__":
    main()
