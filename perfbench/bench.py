"""Measurement loop: set-up, identity checks, timed rounds, metrics, result.

One run of the benchmark:

1. **set-up** from scratch, after imports;
2. **identity checks**, untimed: the workload's checked campaigns run alone
   (``CBOSearch.run`` or an in-process ``StudyClient``), to be compared with
   the same campaigns in the timed rounds;
3. **timed rounds** until ``--seconds`` have passed, cycling through
   :data:`COHORTS` cohorts of campaigns (each cohort at least once).  Every
   repeat of a cohort must reproduce its first round bit for bit.  With
   ``--trace 1`` every round runs cohort 0 and every second round runs under
   the layer wrappers; the untraced rounds between them measure the tracing
   overhead on the same work.  After each round the set-up is repeated
   until it has run :data:`SETUP_REPEATS` times; the median is ``setup_s``.

End-to-end metrics use medians over rounds; per-layer metrics are means over
the traced rounds, so that the layers' self times plus ``unattributed_s`` sum
to the traced wall time (``trace.wall_s``).
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from perfbench.layers import HTTP_REQUEST, SPANS, instrumented
from perfbench.tracer import Tracer, metric_of_span
from perfbench.workloads import WORKLOADS, RoundResult

__all__ = ["END_TO_END", "PER_LAYER", "run_benchmark"]

SETUP_REPEATS = 5
#: Distinct cohorts per run: ``best_runtime_s`` and ``worker_util`` average
#: over all their campaigns, which keeps them steady from seed to seed.
COHORTS = 3

#: End-to-end metrics and their units (every workload).
END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "best_runtime_s": "s",
    "worker_util": "fraction",
}

#: Spans a set-up can open: the source campaign (hep-sim-fleet) or the
#: run-time model's training on simulated samples.  The traced set-up's
#: other spans, if a change adds any, count as ``setup.unattributed_s``.
SETUP_SPANS = ("sim", "ask.self", "tell.ingest", "tell.fit", "runtime_model")

#: Counters of the traced rounds; each must repeat exactly from round to round.
_COUNTERS = (
    "sim.evals",
    "sim.steps",
    "ask.calls",
    "tell.fits",
    "tell.fleet_members",
    "vae.fits",
    "runner.ticks",
    "journal.appends",
    "journal.checkpoints",
    "http.requests",
)

#: Per-layer counts, ratios and diagnostics.
_LAYER_NUMBERS = {
    "sim.evals": "count",
    "sim.ms_per_eval": "ms",
    "sim.events_per_eval": "count",
    "ask.calls": "count",
    "ask.fleet_members_per_pass": "count",
    "tell.fits": "count",
    "tell.fleet_hit_rate": "fraction",
    "vae.fits": "count",
    "runner.ticks": "count",
    "journal.appends": "count",
    "journal.checkpoints": "count",
    "journal.bytes": "bytes",
    "http.requests": "count",
    "http.errors": "count",
    "http.req_p50_ms": "ms",
    "http.req_p99_ms": "ms",
    "http.req_samples": "count",
    "http.status_p50_ms": "ms",
    "http.overhead_ms": "ms",
    "proc.cpu_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.wall_s": "s",
    "unattributed_s": "s",
}

#: Per-layer metrics and their units (the traced run, every workload).
PER_LAYER = {
    **{metric_of_span(span): "s" for span in SPANS},
    **_LAYER_NUMBERS,
    "setup.wall_s": "s",
    "setup.unattributed_s": "s",
    **{"setup." + metric_of_span(span): "s" for span in SETUP_SPANS},
}


def environment(journal_root: Path, thread_vars) -> Dict:
    """Where the numbers were measured: CPUs, versions, BLAS threads, filesystem."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in sorted(libraries):
        try:
            threads = int(ctypes.CDLL(library).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    mounts = []
    with open("/proc/self/mounts") as table:
        for line in table:
            _, point, kind = line.split()[:3]
            if str(journal_root).startswith(point.rstrip("/") + "/"):
                mounts.append((len(point), kind, point))
    _, fs_type, fs_point = max(mounts) if mounts else (0, "unknown", "")
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {name: os.environ.get(name) for name in thread_vars},
        "journal_fs": f"{fs_type} at {fs_point}",
    }


@dataclass
class Round:
    """One timed round: whether it was traced, its wall and CPU time, outputs."""

    cohort: int
    traced: bool
    wall: float
    cpu: float
    result: RoundResult
    #: Per-layer numbers of a traced round (the ``run`` root).
    layers: Optional[Dict[str, float]] = None


def _root_split(
    tracer: Tracer, root: str, spans, prefix: str, errors: List[str]
) -> Dict[str, float]:
    """Self time of ``spans`` under ``root``, plus the rest as ``unattributed_s``.

    Checks that all self times under the root sum to its wall time.
    """
    self_s = tracer.self_times(root)
    wall = tracer.wall(root)
    total = sum(self_s.values())
    if abs(total - wall) > 1e-9 * max(1.0, wall):
        errors.append(f"{root}: layer self times sum to {total!r}, wall is {wall!r}")
    split = {prefix + metric_of_span(span): self_s.get(span, 0.0) for span in spans}
    split[prefix + "unattributed_s"] = total - sum(self_s.get(span, 0.0) for span in spans)
    return split


def _percentile(samples: List[float], percent: int) -> float:
    if len(samples) < 2:
        return 0.0
    return statistics.quantiles(samples, n=100)[percent - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_benchmark(args, root: Path, thread_vars) -> int:
    workdir = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    try:
        print(json.dumps({"environment": environment(workdir, thread_vars)}))
        result = _measure(workload, tracer, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for error in result.pop("errors"):
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


class _SetUps:
    """Times :data:`SETUP_REPEATS` set-ups from scratch; the traced run traces the last.

    The first set-up precedes everything else.  The others run between timed
    rounds, so their median samples the machine over the whole run rather
    than over a few seconds of it; each must reproduce the first one's inputs.
    """

    def __init__(self, workload, tracer, errors: List[str]):
        self.workload = workload
        self.tracer = tracer
        self.errors = errors
        self.seconds: List[float] = []
        self.split: Dict[str, float] = {}
        self._products: List[str] = []

    @property
    def done(self) -> bool:
        return len(self.seconds) == SETUP_REPEATS

    def run_one(self) -> None:
        workload, tracer = self.workload, self.tracer
        traced_setup = tracer is not None and len(self.seconds) == SETUP_REPEATS - 1
        if self.seconds:
            workload.close()
        start = time.perf_counter()
        if traced_setup:
            with instrumented(tracer), tracer.span("setup"):
                product = workload.setup()
        else:
            product = workload.setup()
        self.seconds.append(time.perf_counter() - start)
        if self._products and product != self._products[0]:
            self.errors.append("repeated set-ups produced different inputs")
        self._products.append(product)
        if traced_setup:
            self.split = _root_split(tracer, "setup", SETUP_SPANS, "setup.", self.errors)
            self.split["setup.wall_s"] = tracer.wall("setup")
            tracer.reset()


def _round(workload, tracer, index: int, errors: List[str]) -> Round:
    cohort = 0 if tracer is not None else index % COHORTS
    state = workload.prepare_round(index, cohort)
    traced_round = tracer is not None and index % 2 == 1
    cpu, start = time.process_time(), time.perf_counter()
    if traced_round:
        extra = [(workload, "poll", "http", HTTP_REQUEST)] if hasattr(workload, "poll") else []
        with instrumented(tracer, extra), tracer.span("run"):
            result = workload.run_round(state)
    else:
        result = workload.run_round(state)
    done = Round(
        cohort, traced_round, time.perf_counter() - start, time.process_time() - cpu, result
    )
    workload.finish_round(state, result)
    if traced_round:
        counts = tracer.counts("run")
        done.layers = _root_split(tracer, "run", SPANS, "", errors)
        done.layers.update({name: counts.get(name, 0) for name in _COUNTERS})
        done.layers.update({
            "trace.wall_s": tracer.wall("run"),
            "proc.cpu_s": done.cpu,
            "journal.bytes": result.journal_bytes,
            "http.errors": result.http_errors,
            "ask.fleet_passes": result.ask_fleet[0],
            "ask.fleet_members": result.ask_fleet[1],
        })
        tracer.reset()
    return done


def _firsts(rounds: List[Round]) -> Dict[int, Round]:
    """The first round of every cohort."""
    firsts: Dict[int, Round] = {}
    for done in rounds:
        firsts.setdefault(done.cohort, done)
    return firsts


def _check(rounds: List[Round], solo: Dict[int, tuple], errors: List[str]) -> None:
    """Repeats equal their cohort's first round; checked campaigns equal solo runs."""
    firsts = _firsts(rounds)
    first_traced = _firsts([done for done in rounds if done.traced])
    for number, done in enumerate(rounds):
        errors.extend(done.result.errors)
        if done.result.outcomes != firsts[done.cohort].result.outcomes:
            errors.append(f"round {number} differs from the first round of cohort {done.cohort}")
        if done.traced and any(
            done.layers[name] != first_traced[done.cohort].layers[name] for name in _COUNTERS
        ):
            errors.append(f"traced round {number} repeats its cohort with other counts")
    reference = firsts[0].result.outcomes
    for campaign, outcome in solo.items():
        if not reference or reference[campaign] != outcome:
            errors.append(f"campaign {campaign} differs from its solo run")
    if not all(math.isfinite(best) for first in firsts.values() for _, best, _ in first.result.outcomes):
        errors.append("a campaign found no successful configuration")


def _end_to_end(setup_s: List[float], rounds: List[Round]) -> Dict[str, float]:
    outcomes = [o for first in _firsts(rounds).values() for o in first.result.outcomes]
    outcomes = outcomes or [("", 0.0, 0.0)]
    return {
        "setup_s": statistics.median(setup_s),
        "evals_per_s": statistics.median(done.result.evals / done.wall for done in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_runtime_s": statistics.fmean(best for _, best, _ in outcomes),
        "worker_util": statistics.fmean(util for _, _, util in outcomes),
    }


def _per_layer(setup_split: Dict[str, float], rounds: List[Round]) -> Dict[str, float]:
    traced_rows = [done.layers for done in rounds if done.traced]
    untraced = [done for done in rounds if not done.traced]
    mean = {
        name: statistics.fmean(row[name] for row in traced_rows) for name in traced_rows[0]
    }
    requests = [ms for done in untraced for ms in done.result.request_ms]
    status = [ms for done in untraced for ms in done.result.status_ms]
    values = {**setup_split, **mean}
    values.update({
        "sim.ms_per_eval": 1e3 * _ratio(mean["sim.self_s"], mean["sim.evals"]),
        "sim.events_per_eval": _ratio(mean["sim.steps"], mean["sim.evals"]),
        "ask.fleet_members_per_pass": _ratio(mean["ask.fleet_members"], mean["ask.fleet_passes"]),
        "tell.fleet_hit_rate": _ratio(mean["tell.fleet_members"], mean["tell.fits"]),
        "http.overhead_ms": 1e3 * _ratio(mean["http.self_s"], mean["http.requests"]),
        "http.req_p50_ms": _percentile(requests, 50),
        "http.req_p99_ms": _percentile(requests, 99),
        "http.req_samples": len(requests),
        "http.status_p50_ms": _percentile(status, 50),
        "trace.overhead_frac": _ratio(
            mean["trace.wall_s"], statistics.fmean(done.wall for done in untraced)
        ) - 1.0,
    })
    return values


def _measure(workload, tracer, seconds: float) -> Dict:
    errors: List[str] = []
    setups = _SetUps(workload, tracer, errors)
    setups.run_one()
    # Identity references, untimed; they also warm every code path.
    solo = {index: workload.solo_outcome(index) for index in workload.checked}
    rounds: List[Round] = []
    started = time.perf_counter()
    while len(rounds) < COHORTS or time.perf_counter() - started < seconds:
        rounds.append(_round(workload, tracer, len(rounds), errors))
        if not setups.done:
            setups.run_one()
    while not setups.done:
        setups.run_one()
    attempted = sum(done.result.attempted for done in rounds)
    failed = sum(done.result.failed for done in rounds)
    _check(rounds, solo, errors)
    if tracer is None:
        values, units = _end_to_end(setups.seconds, rounds), END_TO_END
        print(json.dumps({"samples": {
            "setup_s": setups.seconds,
            "round_evals_per_s": [done.result.evals / done.wall for done in rounds],
        }}))
    else:
        values, units = _per_layer(setups.split, rounds), PER_LAYER
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            # JSON has no NaN or infinity; the run is already incorrect.
            errors.append(f"{name} is not finite: {value!r}")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
    }
