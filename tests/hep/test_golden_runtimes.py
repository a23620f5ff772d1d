"""Golden-runtime corpus: the bit-exact oracle for the HEP workflow simulator.

``golden_runtimes.json`` holds, for ``4n-1s-11p`` and ``4n-2s-20p``, the
default configuration plus 16 seeded random configurations, each evaluated
with a seeded noise RNG, and a few shortened step time limits that make the
loader or the event-selection step time out.  Float fields are stored as
``float.hex`` and the integer and boolean fields as JSON numbers and
booleans, so every field compares exactly, NaN included.

Any change to the simulation kernel or the Mochi/HEPnOS models must leave
every entry unchanged.  Regenerate the corpus only for a change that is
meant to alter simulated run times::

    PYTHONPATH=src python tests/hep/test_golden_runtimes.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.hep.costs import DEFAULT_COSTS
from repro.hep.parameters import DEFAULT_CONFIGURATION, get_setup
from repro.hep.workflow import HEPWorkflow
from repro.sim.engine import Environment

CORPUS_PATH = pathlib.Path(__file__).with_name("golden_runtimes.json")
SETUPS = ("4n-1s-11p", "4n-2s-20p")
NUM_RANDOM = 16
SPACE_SEED = 2210
WORKFLOW_SEED = 0
NOISE = 0.02
FLOAT_FIELDS = ("runtime", "loader_time", "pep_time")
EXACT_FIELDS = ("timed_out", "events_stored", "events_processed")

#: Total ``Environment.step`` calls over the whole corpus.  It was 409086
#: while every ``with resource.request()`` exit still scheduled a ``Release``.
CORPUS_STEPS = 316860


def _evaluate(entry):
    costs = DEFAULT_COSTS
    if entry["step_time_limit"] is not None:
        costs = dataclasses.replace(costs, step_time_limit=entry["step_time_limit"])
    workflow = HEPWorkflow(entry["setup"], costs=costs, seed=WORKFLOW_SEED, noise=NOISE)
    return workflow.run(
        entry["configuration"], rng=np.random.default_rng(entry["noise_seed"])
    )


def _encode(result):
    record = {name: getattr(result, name).hex() for name in FLOAT_FIELDS}
    record.update({name: getattr(result, name) for name in EXACT_FIELDS})
    return record


def _id(entry):
    limit = entry["step_time_limit"]
    suffix = "" if limit is None else f"-limit{limit:g}"
    return f"{entry['setup']}-{entry['label']}{suffix}"


# Absent only while ``_generate`` writes the corpus for the first time.
CORPUS = json.loads(CORPUS_PATH.read_text()) if CORPUS_PATH.exists() else []


def test_corpus_covers_both_setups_and_timeouts():
    assert {entry["setup"] for entry in CORPUS} == set(SETUPS)
    for setup in SETUPS:
        plain = [e for e in CORPUS if e["setup"] == setup and e["step_time_limit"] is None]
        assert len(plain) == NUM_RANDOM + 1
    timed_out = [e for e in CORPUS if e["result"]["timed_out"]]
    assert {e["setup"] for e in timed_out} == set(SETUPS)
    # One 4n-2s-20p entry finishes the loader and times out in event selection.
    assert any(e["result"]["loader_time"] != "nan" for e in timed_out)


@pytest.mark.parametrize("entry", CORPUS, ids=_id)
def test_workflow_result_is_bit_identical(entry):
    assert _encode(_evaluate(entry)) == entry["result"]


def _count_steps(entries):
    """Evaluate ``entries`` with ``Environment.step`` counted at class level."""
    steps = [0]
    step = Environment.step

    def counted_step(self):
        steps[0] += 1
        return step(self)

    Environment.step = counted_step
    try:
        for entry in entries:
            _evaluate(entry)
    finally:
        Environment.step = step
    return steps[0]


def test_corpus_step_count_is_pinned():
    assert _count_steps(CORPUS) == CORPUS_STEPS


# --------------------------------------------------------------- generation
def _generate():
    entries = []
    for setup in SETUPS:
        space_rng = np.random.default_rng([SPACE_SEED, SETUPS.index(setup)])
        configurations = [("default", dict(DEFAULT_CONFIGURATION))]
        configurations += [
            (f"random{i:02d}", config)
            for i, config in enumerate(get_setup(setup).space().sample(NUM_RANDOM, space_rng))
        ]
        for label, configuration in configurations:
            entries.append(_entry(setup, label, configuration, None, len(entries)))
        # The loader cannot finish within 5 s on any configuration.
        entries.append(_entry(setup, "default", dict(DEFAULT_CONFIGURATION), 5.0, len(entries)))
        if get_setup(setup).num_steps >= 2:
            # Halfway between loader and event-selection time: step 2 times out.
            for label, configuration in configurations:
                clean = HEPWorkflow(setup, seed=WORKFLOW_SEED, noise=0.0).run(configuration)
                if clean.pep_time > clean.loader_time:
                    limit = round((clean.loader_time + clean.pep_time) / 2.0, 1)
                    entries.append(_entry(setup, label, configuration, limit, len(entries)))
                    break
    CORPUS_PATH.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries; CORPUS_STEPS = {_count_steps(entries)}")


def _entry(setup, label, configuration, step_time_limit, noise_seed):
    entry = {
        "setup": setup,
        "label": label,
        "configuration": configuration,
        "step_time_limit": step_time_limit,
        "noise_seed": noise_seed,
    }
    # Evaluate the JSON round-tripped entry, exactly what the tests load.
    entry = json.loads(json.dumps(entry))
    entry["result"] = _encode(_evaluate(entry))
    return entry


if __name__ == "__main__":
    _generate()
