"""Fused VAE fleet training vs. sequential fits — wall-clock speedup.

The transfer-learning stack trains many small tabular VAEs: one per
campaign at construction time (``fit_transfer_prior``) and one per due
prior refresh in the continuous-retuning scenario
(``CBOSearch(prior_refresh_interval=...)``).  This benchmark measures the
fused :class:`~repro.core.vae.tvae.VAEFleet` path two ways:

* **training** — K structurally identical VAEs trained on K training
  matrices, fused lock-step epochs (``VAEFleet.fit``) vs sequential
  ``member.fit`` calls.  Every member's weights, training
  trace, samples and RNG state are asserted **bitwise identical** between
  the two modes at full size — the fleet only amortises the per-layer
  NumPy dispatch overhead.
* **campaigns** — a transfer-campaign fleet end to end: VAE-ABO campaigns
  seeded with a :class:`~repro.core.transfer.TransferLearningPrior` from a
  shared source history, periodically retraining their prior from their own
  incumbents, run through the batched
  :class:`~repro.service.CampaignRunner` (due VAE refits fused per tick)
  vs the same campaigns run sequentially.  Per-campaign results are
  asserted bit-identical; only wall-clock changes.

Results are written to ``BENCH_vae_fleet.json`` (repo root by default).
Timings take the best of ``--reps`` repetitions to suppress machine noise;
speedups on this 1-CPU box are reported as measured.

Run with::

    PYTHONPATH=src python benchmarks/bench_vae_fleet.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.search import CBOSearch, SearchResult, VAEABOSearch
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate import RandomForestSurrogate
from repro.core.vae.transforms import TabularTransform
from repro.core.vae.tvae import TabularVAE, VAEFleet
from repro.service import CampaignRunner, CampaignSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_vae_fleet.json"

FLEET_SIZE = 8
TRAIN_ROWS = 128
TRAIN_EPOCHS = 120
NUM_CAMPAIGNS = 8


def make_space() -> SearchSpace:
    return SearchSpace(
        [
            IntegerParameter("batch", 1, 2048, log=True),
            RealParameter("rate", 0.1, 50.0, log=True),
            IntegerParameter("threads", 1, 31),
            CategoricalParameter("pool", ("fifo", "fifo_wait", "prio_wait")),
            CategoricalParameter.boolean("busy"),
        ]
    )


def run_function(config) -> float:
    value = abs(math.log(config["batch"]) - 5.0) + 0.3 * math.log(config["rate"])
    value += 0.05 * abs(config["threads"] - 16)
    value += 1.0 if config["pool"] == "prio_wait" else 0.0
    value += 0.0 if config["busy"] else 0.7
    return 30.0 + 12.0 * value


# ------------------------------------------------------------------ training
def make_members(transform: TabularTransform, count: int) -> List[TabularVAE]:
    return [
        TabularVAE(
            input_dim=transform.dimension,
            numeric_columns=transform.numeric_columns,
            categorical_blocks=transform.categorical_blocks,
            latent_dim=4,
            hidden=(64, 64),
            seed=seed,
        )
        for seed in range(count)
    ]


def assert_members_identical(a: List[TabularVAE], b: List[TabularVAE]) -> None:
    """Weights, traces and post-fit samples must match bitwise per member."""
    for k, (ma, mb) in enumerate(zip(a, b)):
        for (pa, _), (pb, _) in zip(ma._all_parameters(), mb._all_parameters()):
            assert np.array_equal(pa, pb), f"member {k}: weight mismatch {pa.shape}"
        assert ma.trace.loss == mb.trace.loss, f"member {k}: trace mismatch"
        assert np.array_equal(ma.sample(64), mb.sample(64)), f"member {k}: sample mismatch"


def measure_training(reps: int, fleet_size: int, rows: int, epochs: int) -> Dict[str, object]:
    space = make_space()
    transform = TabularTransform(space)
    datasets = [
        transform.encode(space.sample(rows, np.random.default_rng(100 + k)))
        for k in range(fleet_size)
    ]
    fused_times, seq_times = [], []
    fused_members = seq_members = None
    for _ in range(reps):
        seq_members = make_members(transform, fleet_size)
        start = time.perf_counter()
        for member, X in zip(seq_members, datasets):
            member.fit(X, epochs=epochs, batch_size=64)
        seq_times.append(time.perf_counter() - start)
        fused_members = make_members(transform, fleet_size)
        start = time.perf_counter()
        VAEFleet(fused_members).fit(datasets, epochs=epochs, batch_size=64)
        fused_times.append(time.perf_counter() - start)
    assert_members_identical(seq_members, fused_members)
    t_seq, t_fused = min(seq_times), min(fused_times)
    return {
        "fleet_size": fleet_size,
        "rows": rows,
        "epochs": epochs,
        "input_dim": transform.dimension,
        "sequential_s": t_seq,
        "fused_s": t_fused,
        "speedup": t_seq / max(t_fused, 1e-12),
        "bit_identical": True,
    }


# ----------------------------------------------------------------- campaigns
def make_source_history(space: SearchSpace):
    """A cold campaign whose history seeds every transfer campaign."""
    search = CBOSearch(
        space,
        run_function,
        num_workers=8,
        surrogate=RandomForestSurrogate(n_estimators=6, seed=99),
        num_candidates=64,
        n_initial_points=6,
        seed=99,
    )
    return search.run(max_time=float("inf"), max_evaluations=48).history


def make_campaigns(space, source_history) -> List[VAEABOSearch]:
    return [
        VAEABOSearch(
            space,
            run_function,
            source_history=source_history,
            vae_epochs=60,
            num_workers=8,
            surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
            num_candidates=64,
            n_initial_points=6,
            prior_refresh_interval=12,
            prior_refresh_top_k=10,
            prior_refresh_epochs=40,
            seed=seed,
        )
        for seed in range(NUM_CAMPAIGNS)
    ]


def assert_results_identical(seq: List[SearchResult], bat: List[SearchResult]) -> None:
    for i, (a, b) in enumerate(zip(seq, bat)):
        assert len(a.history) == len(b.history), f"campaign {i}: history length"
        for ev_a, ev_b in zip(a.history, b.history):
            assert ev_a.configuration == ev_b.configuration, f"campaign {i}: configuration"
            assert ev_a.submitted == ev_b.submitted, f"campaign {i}: submitted"
            assert ev_a.completed == ev_b.completed, f"campaign {i}: completed"
        assert a.busy_intervals == b.busy_intervals, f"campaign {i}: busy intervals"
        assert a.worker_utilization == b.worker_utilization, f"campaign {i}: utilization"


def measure_campaigns(reps: int, max_evaluations: int = 72) -> Dict[str, object]:
    space = make_space()
    source_history = make_source_history(space)
    seq_times, bat_times = [], []
    seq_results = bat_results = None
    runner = None
    for _ in range(reps):
        searches = make_campaigns(space, source_history)
        start = time.perf_counter()
        seq_results = [
            s.run(max_time=float("inf"), max_evaluations=max_evaluations) for s in searches
        ]
        seq_times.append(time.perf_counter() - start)
        specs = [
            CampaignSpec(
                search=search,
                max_time=float("inf"),
                max_evaluations=max_evaluations,
                label=f"tl-{i}",
            )
            for i, search in enumerate(make_campaigns(space, source_history))
        ]
        runner = CampaignRunner(specs)
        start = time.perf_counter()
        bat_results = runner.run()
        bat_times.append(time.perf_counter() - start)
    assert_results_identical(seq_results, bat_results)
    assert runner.num_prior_refreshes > 0, "no prior refresh fell due"
    assert runner.num_vae_fleet_fits > 0, "no refresh was fused"
    t_seq, t_bat = min(seq_times), min(bat_times)
    return {
        "num_campaigns": NUM_CAMPAIGNS,
        "max_evaluations": max_evaluations,
        "evaluations_per_campaign": [r.num_evaluations for r in bat_results],
        "prior_refreshes": runner.num_prior_refreshes,
        "vae_fleet_fits": runner.num_vae_fleet_fits,
        "vae_fleet_members": runner.num_vae_fleet_members,
        "sequential_s": t_seq,
        "batched_s": t_bat,
        "speedup": t_seq / max(t_bat, 1e-12),
        "bit_identical": True,
    }


def run_benchmark(reps: int = 3, output: Path = DEFAULT_OUTPUT, quick: bool = False):
    if quick:
        training = measure_training(1, fleet_size=4, rows=48, epochs=20)
        campaigns = measure_campaigns(1, max_evaluations=36)
    else:
        training = measure_training(reps, FLEET_SIZE, TRAIN_ROWS, TRAIN_EPOCHS)
        campaigns = measure_campaigns(reps)
    print(
        f"training     seq {training['sequential_s']:6.2f}s  "
        f"fused {training['fused_s']:6.2f}s  speedup {training['speedup']:.2f}x  (bit-identical)"
    )
    print(
        f"campaigns    seq {campaigns['sequential_s']:6.2f}s  "
        f"batched {campaigns['batched_s']:6.2f}s  speedup {campaigns['speedup']:.2f}x  "
        f"({campaigns['vae_fleet_fits']} fused VAE fleet fits covering "
        f"{campaigns['vae_fleet_members']}/{campaigns['prior_refreshes']} refreshes, bit-identical)"
    )
    payload = {
        "benchmark": "vae_fleet",
        "reps": 1 if quick else reps,
        "quick": quick,
        "description": (
            "Fused VAEFleet lock-step training of K tabular VAEs vs K sequential "
            "TabularVAE.fit calls (weights/traces/samples asserted bitwise "
            "identical), and a transfer-campaign fleet (TransferLearningPrior "
            "seeds + periodic own-history prior refreshes) through the batched "
            "CampaignRunner vs sequential runs (per-campaign results asserted "
            "bit-identical). Times are best-of-reps on a 1-CPU box."
        ),
        "training": training,
        "campaigns": campaigns,
        "acceptance": {
            "criterion": (
                "fused VAE fleet training bitwise identical to sequential fits "
                "with a measured speedup > 1, and the transfer-campaign fleet "
                "bit-identical through CampaignRunner"
            ),
            "training_speedup": training["speedup"],
            "campaign_speedup": campaigns["speedup"],
            "bit_identical": bool(training["bit_identical"] and campaigns["bit_identical"]),
            "passed": bool(
                training["bit_identical"]
                and campaigns["bit_identical"]
                and training["speedup"] > 1.0
            ),
        },
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    status = "PASS" if payload["acceptance"]["passed"] else "FAIL"
    print(
        f"acceptance ({payload['acceptance']['criterion']}): "
        f"{training['speedup']:.2f}x training, {campaigns['speedup']:.2f}x campaigns -> {status}"
    )
    return payload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="one rep at reduced size")
    parser.add_argument("--reps", type=int, default=3, help="repetitions per mode (best-of)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT, help="JSON output path")
    args = parser.parse_args(argv)
    return run_benchmark(reps=args.reps, output=args.output, quick=args.quick)


if __name__ == "__main__":
    main()
