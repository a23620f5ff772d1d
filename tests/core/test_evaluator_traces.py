"""Pinned evaluator traces: the bit-exact oracle for the worker pool.

``golden_evaluator_traces.json`` holds seeded submit / ``wait_any`` /
``collect`` scripts on 1, 6 and 128 workers, plus one case each for a
custom ``failure_duration``, a ``duration_function``, a ``deadline`` and a
fault plan.
Each script draws its run times (ties, failures and non-positive values
included), how many idle workers to fill, whether to pass the run times to
``submit`` precomputed, and whether to wait uncapped, wait with a cap or
advance the clock and collect.  The trace records every collected
evaluation as ``(id, worker, submitted, completed, runtime)``, the clock
after each step, and the final counters and ``utilization``.  Floats are
stored as ``float.hex``, so every field compares exactly, NaN included.

The fault-free cases were generated from the private ``AsyncVirtualEvaluator``
before it was folded into :class:`~repro.core.evaluator.ServiceEvaluator`,
and the ``faults`` case (lost and crashed work retried with backoff, then
delivered as NaN) from the worker pool as it was before its event and
idle-worker heaps; a private-pool client must reproduce every bit.
Regenerate the corpus only for a change that is meant to alter evaluator
traces::

    PYTHONPATH=src python tests/core/test_evaluator_traces.py
"""

from __future__ import annotations

import json
import math
import pathlib
import re

import numpy as np
import pytest

from repro.core.evaluator import ServiceEvaluator
from repro.sim import FaultPlan

CORPUS_PATH = pathlib.Path(__file__).with_name("golden_evaluator_traces.json")

#: name -> (num_workers, steps, seed, evaluator keywords).
CASES = {
    "workers1": (1, 60, 1, {}),
    "workers6": (6, 120, 6, {}),
    "workers128": (128, 150, 128, {}),
    "failure_duration": (6, 80, 7, {"failure_duration": 123.25}),
    "duration_function": (
        6,
        80,
        8,
        {"duration_function": lambda config, runtime: 5.0 + 2.5 * (config["id"] % 7)},
    ),
    "deadline": (6, 80, 9, {"deadline": 45.0}),
    "faults": (
        6,
        100,
        10,
        {
            "fault_plan": FaultPlan(
                seed=5,
                failure_rate=0.1,
                crash_rate=0.02,
                hang_rate=0.05,
                loss_rate=0.15,
                straggler_rate=0.1,
                straggler_factor=3.0,
            ),
            "deadline": 90.0,
            "backoff_base": 5.0,
        },
    ),
}


def _draw_runtime(rng):
    roll = rng.random()
    if roll < 0.1:
        return float("nan")
    if roll < 0.13:
        return -1.0 if rng.random() < 0.5 else 0.0
    if roll < 0.43:
        # Whole seconds, so completions tie and the submission order decides.
        return float(rng.integers(1, 40))
    return float(rng.lognormal(mean=3.0, sigma=0.8))


def _run(case, make_evaluator=ServiceEvaluator):
    """Drive the seeded script of ``case``; returns its JSON-ready trace."""
    num_workers, steps, seed, keywords = CASES[case]
    rng = np.random.default_rng(seed)
    runtimes = {}
    evaluator = make_evaluator(
        lambda config: runtimes[config["id"]], num_workers=num_workers, **keywords
    )
    collected, clock = [], []

    def record(done):
        collected.extend(
            [ev.configuration["id"], ev.worker, ev.submitted.hex(),
             ev.completed.hex(), ev.runtime.hex()]
            for ev in done
        )

    next_id = 0
    for _ in range(steps):
        count = int(rng.integers(0, evaluator.num_idle + 1))
        batch = []
        for _ in range(count):
            runtimes[next_id] = _draw_runtime(rng)
            batch.append({"id": next_id})
            next_id += 1
        if batch:
            if rng.random() < 0.3:
                evaluator.submit(batch, [runtimes[c["id"]] for c in batch])
            else:
                evaluator.submit(batch)
        action = rng.random()
        if action < 0.7 and evaluator.num_pending:
            record(evaluator.wait_any(math.inf)[1])
        elif action < 0.9:
            record(evaluator.wait_any(evaluator.now + float(rng.uniform(0.0, 50.0)))[1])
        else:
            evaluator.advance_to(evaluator.now + float(rng.uniform(0.0, 30.0)))
            record(evaluator.collect())
        clock.append(evaluator.now.hex())
    while evaluator.num_pending:
        record(evaluator.wait_any(math.inf)[1])
    clock.append(evaluator.now.hex())
    return {
        "collected": collected,
        "clock": clock,
        "num_submitted": evaluator.num_submitted,
        "num_collected": evaluator.num_collected,
        "num_idle": evaluator.num_idle,
        "utilization": [
            evaluator.utilization(horizon).hex()
            for horizon in (evaluator.now / 2.0, evaluator.now, 2.0 * evaluator.now)
        ],
    }


# Absent only while ``_generate`` writes the corpus for the first time.
CORPUS = json.loads(CORPUS_PATH.read_text()) if CORPUS_PATH.exists() else {}


def test_corpus_covers_every_case():
    assert sorted(CORPUS) == sorted(CASES)
    for case, trace in CORPUS.items():
        assert trace["num_collected"] > CASES[case][0]
        if case == "faults":
            # Retries are submissions too, and some lost work was retried.
            assert trace["num_collected"] < trace["num_submitted"]
        else:
            assert trace["num_collected"] == trace["num_submitted"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_is_bit_identical(case):
    assert _run(case) == CORPUS[case]


def _dump(corpus):
    """``corpus`` as indented JSON with each innermost list on one line."""
    return re.sub(
        r"\[\s+([^\[\]]*?)\s+\]",
        lambda match: "[" + re.sub(r",\s+", ", ", match.group(1)) + "]",
        json.dumps(corpus, indent=1),
    )


def _generate(make_evaluator=ServiceEvaluator):
    corpus = {case: _run(case, make_evaluator) for case in CASES}
    CORPUS_PATH.write_text(_dump(corpus) + "\n")
    print(f"wrote {len(corpus)} traces to {CORPUS_PATH.name}")


if __name__ == "__main__":
    _generate()
