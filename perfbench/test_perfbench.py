"""Tests of the benchmark's own arithmetic: span self times and metric names.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

from perfbench.tracer import Tracer, check_metric_name, metric_of_span

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock that reads the next scripted time on every call."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # run [0, 10]: ask [1, 6] holding score [2, 5]; tell [7, 9].
    tracer = Tracer(clock=FakeClock(0, 1, 2, 5, 6, 7, 9, 10))
    with tracer.span("run"):
        with tracer.span("ask.self"):
            with tracer.span("ask.score"):
                pass
        with tracer.span("tell.fit"):
            pass
    assert tracer.self_times("run") == {
        "ask.score": 3,
        "ask.self": 2,
        "tell.fit": 2,
        "run": 3,
    }
    assert tracer.wall("run") == 10
    assert sum(tracer.self_times("run").values()) == tracer.wall("run")


def test_same_span_name_accumulates_and_roots_stay_apart():
    # setup [0, 10] holds sim [1, 2] and sim [3, 4]; run [20, 40] holds sim [25, 30].
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 10, 20, 25, 30, 40))
    with tracer.span("setup"):
        with tracer.span("sim"):
            pass
        with tracer.span("sim"):
            pass
    with tracer.span("run"):
        with tracer.span("sim"):
            pass
    assert tracer.self_times("setup") == {"sim": 2, "setup": 8}
    assert tracer.self_times("run") == {"sim": 5, "run": 15}
    assert tracer.wall("setup") == 10 and tracer.wall("run") == 20


def test_nested_span_of_the_same_name_is_inside_it():
    tracer = Tracer()
    with tracer.span("run"):
        with tracer.span("tell.fit") as outer:
            with tracer.span("tell.fit") as inner:
                assert inner.inside("tell.fit")
            assert not outer.inside("tell.fit")
            assert outer.inside("run")


def test_adopted_spans_of_another_thread_are_children():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 4, 5, 6))
    with tracer.span("run"):
        with tracer.span("http") as request:
            with tracer.adopting(request):
                worker = threading.Thread(target=_registry_call, args=(tracer,))
                worker.start()
                worker.join(timeout=10)
                assert not worker.is_alive()
    assert tracer.self_times("run") == {"registry.suggest": 2, "http": 2, "run": 2}
    assert sum(tracer.self_times("run").values()) == tracer.wall("run")


def _registry_call(tracer):
    with tracer.span("registry.suggest"):
        pass


def test_counts_are_kept_per_root():
    tracer = Tracer()
    tracer.count("run", "sim.evals")
    tracer.count("run", "sim.evals", 3)
    tracer.count("setup", "sim.evals", 2)
    assert tracer.counts("run") == {"sim.evals": 4}
    assert tracer.counts("setup") == {"sim.evals": 2}
    tracer.reset()
    assert tracer.counts("run") == {} and tracer.wall("run") == 0.0


@pytest.mark.parametrize(
    "name", ["sim.self_s", "req_p99_ms", "setup.journal.attach_s", "hep-sim-fleet", "9a"]
)
def test_metric_name_rule_accepts(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize(
    "name", ["", ".hidden", "_x", "a b", "p/s", "x" * 65, "ümlaut", "a,b"]
)
def test_metric_name_rule_rejects(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_metric_of_span():
    assert metric_of_span("sim") == "sim.self_s"
    assert metric_of_span("tell.fit") == "tell.fit_s"
    with pytest.raises(ValueError):
        metric_of_span("bad name")


def test_declared_metrics_match_the_code():
    """BENCHMARK.json names exactly the metrics the benchmark prints."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from perfbench import bench

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for name in list(bench.END_TO_END) + list(bench.PER_LAYER) + list(WORKLOADS):
        check_metric_name(name)
