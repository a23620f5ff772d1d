"""The benchmark's three workloads: inputs from a seed, set-up, timed rounds, checks.

Every workload runs cohorts of campaigns whose inputs (seeds, budgets)
follow from ``--seed`` and the cohort number alone.  A timed *round* runs one
cohort to the end of its virtual-time budget; the benchmark cycles through a few
cohorts until the run's time is used up, and every repeat of a cohort must
reproduce its first round bit for bit (``best_runtime_s`` and ``worker_util``
are virtual, hence exact).

* ``hep-sim-fleet`` — 2 RF and 2 transfer-learning RF campaigns on the
  discrete-event simulator of ``4n-2s-20p``; the transfer campaigns learn
  their prior from a ``4n-1s-11p`` campaign run in set-up.  The simulator
  dominates the time here.
* ``surrogate-fleet`` — RF, GP and RF-with-prior-refresh campaigns on a
  learned run-time model (the paper's Fig. 5 method), evaluated through
  ``SurrogateRuntimeFleet.run_batch``.  No simulator in the timed run: ask,
  tell and the runner dominate.
* ``http-ask-tell`` — 4 RF studies of a journaled ``CampaignRegistry`` driven
  over HTTP by one closed-loop client, with a ``GET /studies`` poll per pass
  and one evict + re-attach per study.  The only workload through HTTP, the
  registry and the journal.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.evaluator import EvaluatorStalledError
from repro.core.search import CBOSearch, VAEABOSearch
from repro.hep.surrogate_runtime import SurrogateRuntime, SurrogateRuntimeFleet
from repro.hep.workflow import HEPWorkflow, HEPWorkflowProblem
from repro.service import (
    CampaignRegistry,
    CampaignRunner,
    CampaignSpec,
    HTTPStudyClient,
    RegistryError,
    StudyClient,
    StudyFrontend,
)

__all__ = ["WORKLOADS", "RoundResult", "fingerprint"]

SOURCE_SETUP = "4n-1s-11p"
TARGET_SETUP = "4n-2s-20p"
#: Seed of the simulated input-file population and of the learned run-time
#: model.  Both define the tuning *problem*, which stays fixed; ``--seed``
#: draws the campaigns (search and noise seeds).  Problems drawn per seed
#: differ so much in their best reachable run time and in simulation cost
#: that best_runtime_s and setup_s would spread more across seeds than any
#: bound allows.
PROBLEM_SEED = 0


def _problem(setup: str, seed: int) -> HEPWorkflowProblem:
    """The fixed simulated workflow of ``setup`` with noise stream ``seed``."""
    return HEPWorkflowProblem(HEPWorkflow(setup, seed=PROBLEM_SEED), seed=seed)


@dataclass
class RoundResult:
    """What one timed round measured and produced."""

    evals: int = 0
    #: Suggest and report request latencies (ms), HTTP workload only.
    request_ms: List[float] = field(default_factory=list)
    #: ``GET /studies`` poll latencies (ms), HTTP workload only.
    status_ms: List[float] = field(default_factory=list)
    #: Per-campaign (fingerprint, best run time, worker utilisation).
    outcomes: List[tuple] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Bytes the round's journals hold on disk (HTTP workload only).
    journal_bytes: int = 0
    #: Failed HTTP requests: non-2xx responses and exceptions.
    http_errors: int = 0
    #: Runner fleet-ask passes and their members (fleet workloads only).
    ask_fleet: tuple = (0, 0)


def fingerprint(result) -> str:
    """Digest of a SearchResult's full history plus its headline numbers."""
    history = result.history
    digest = hashlib.sha256()
    digest.update(
        json.dumps(history.configurations(), sort_keys=True, default=lambda v: v.item()).encode()
    )
    for column in (
        history.runtimes(),
        history.submitted_times(),
        history.completed_times(),
        history.workers(),
    ):
        digest.update(np.ascontiguousarray(column).tobytes())
    digest.update(
        f"{float(result.best_runtime).hex()} {float(result.worker_utilization).hex()} "
        f"{result.num_evaluations}".encode()
    )
    return digest.hexdigest()


def outcome(result) -> tuple:
    return (fingerprint(result), float(result.best_runtime), float(result.worker_utilization))


def _campaign_seed(seed: int, cohort: int, index: int) -> int:
    return 1000 * seed + 10 * cohort + index


def _train_runtime_model(num_samples: int) -> SurrogateRuntime:
    problem = _problem(TARGET_SETUP, PROBLEM_SEED)
    return SurrogateRuntime.train(problem, num_samples=num_samples, seed=PROBLEM_SEED)


def _model_digest(model: SurrogateRuntime) -> str:
    probe = model.space.sample(32, np.random.default_rng(PROBLEM_SEED))
    return hashlib.sha256(model.predict(probe).tobytes()).hexdigest()


def _model_copy(model: SurrogateRuntime, seed: int) -> SurrogateRuntime:
    """A runtime model sharing ``model``'s forest with its own noise stream."""
    return SurrogateRuntime(
        model.space,
        model.forest,
        failure_runtime=model.failure_runtime,
        noise=model.noise,
        seed=seed,
    )


class FleetWorkload:
    """Shared round logic of the two CampaignRunner workloads."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def cohort(self, cohort: int) -> tuple:
        """``(specs, run_batcher)`` of a cohort, fresh searches every call."""
        raise NotImplementedError

    def prepare_round(self, index: int, cohort: int) -> CampaignRunner:
        specs, batcher = self.cohort(cohort)
        return CampaignRunner(
            specs, run_batcher=batcher, on_campaign_error="quarantine", step_workers=1
        )

    def run_round(self, runner: CampaignRunner) -> RoundResult:
        result = RoundResult(attempted=len(runner.specs))
        try:
            results = runner.run()
        except EvaluatorStalledError as error:
            result.failed = len(runner.specs)
            result.errors.append(f"{self.name}: evaluator stalled: {error}")
            return result
        result.failed = len(runner.quarantined)
        result.errors.extend(
            f"{self.name}: campaign {q.index} quarantined in {q.phase}: {q.error!r}"
            for q in runner.quarantined
        )
        result.evals = sum(r.num_evaluations for r in results)
        result.ask_fleet = (runner.num_ask_fleet_passes, runner.num_ask_fleet_members)
        return result

    def finish_round(self, runner: CampaignRunner, result: RoundResult) -> None:
        """Fingerprint the round's results (untimed)."""
        if result.failed == 0:
            result.outcomes = [outcome(r) for r in runner.results()]

    def solo_outcome(self, index: int) -> tuple:
        """Campaign ``index`` of cohort 0, run alone through ``CBOSearch.run``."""
        spec = self.cohort(0)[0][index]
        return outcome(spec.search.run(max_time=spec.max_time))

    def close(self) -> None:
        pass


class HepSimFleet(FleetWorkload):
    """RF and transfer-learning RF campaigns on the simulated HEP workflow."""

    name = "hep-sim-fleet"
    source_workers = 8
    source_evals = 32
    #: Top share of the source history the transfer VAE learns from; the
    #: prior needs at least 8 configurations to train a VAE at all.
    quantile = 0.25
    workers = 4
    max_time = 300.0
    #: Campaigns checked against a solo ``CBOSearch.run``: one transfer one.
    checked = (2,)

    def setup(self) -> str:
        problem = _problem(SOURCE_SETUP, self.seed)
        search = CBOSearch(
            problem.space,
            problem.evaluate,
            num_workers=self.source_workers,
            surrogate="RF",
            seed=self.seed,
        )
        result = search.run(max_time=3600.0, max_evaluations=self.source_evals)
        self.source = result.history
        return fingerprint(result)

    def cohort(self, cohort: int) -> tuple:
        specs = []
        for index in range(4):
            seed = _campaign_seed(self.seed, cohort, index)
            problem = _problem(TARGET_SETUP, seed)
            if index < 2:
                search = CBOSearch(
                    problem.space,
                    problem.evaluate,
                    num_workers=self.workers,
                    surrogate="RF",
                    seed=seed,
                )
            else:
                search = VAEABOSearch(
                    problem.space,
                    problem.evaluate,
                    source_history=self.source,
                    quantile=self.quantile,
                    defer_transfer_fit=True,
                    num_workers=self.workers,
                    surrogate="RF",
                    seed=seed,
                )
            specs.append(CampaignSpec(search=search, max_time=self.max_time, label=f"c{index}"))
        return specs, None


class SurrogateFleet(FleetWorkload):
    """A mixed RF / GP / RF-with-prior-refresh cohort on a learned run-time model."""

    name = "surrogate-fleet"
    model_samples = 16
    workers = 8
    max_time = 250.0
    #: (surrogate, prior refresh interval) per campaign.
    kinds = (("RF", None), ("RF", None), ("GP", None), ("GP", None), ("RF", 16), ("RF", 16))
    checked = tuple(range(len(kinds)))

    def setup(self) -> str:
        self.model = _train_runtime_model(self.model_samples)
        return _model_digest(self.model)

    def cohort(self, cohort: int) -> tuple:
        specs, runtimes = [], []
        for index, (surrogate, refresh) in enumerate(self.kinds):
            seed = _campaign_seed(self.seed, cohort, index)
            runtime = _model_copy(self.model, seed)
            runtimes.append(runtime)
            search = CBOSearch(
                runtime.space,
                runtime,
                num_workers=self.workers,
                surrogate=surrogate,
                prior_refresh_interval=refresh,
                seed=seed,
            )
            specs.append(CampaignSpec(search=search, max_time=self.max_time, label=f"c{index}"))
        return specs, SurrogateRuntimeFleet(runtimes).run_batch


def _client_evaluates(configuration):
    """Run function of ask/tell studies: the client evaluates, never the service."""
    raise RuntimeError("ask/tell studies are evaluated by the client")


class HttpAskTell:
    """One closed-loop HTTP client round-robining RF studies of a journaled registry."""

    name = "http-ask-tell"
    model_samples = 16
    studies = 4
    workers = 4
    max_time = 600.0
    #: Evaluations after which a study is evicted and re-attached (midway).
    evict_at = 16
    checked = (0,)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.frontend: Optional[StudyFrontend] = None
        self.setups = 0
        #: ``GET /studies`` poll; the traced run swaps in a traced twin.
        self.poll = self._poll

    def _template(self, seed: int = 0, **params) -> CBOSearch:
        return CBOSearch(
            self.model.space,
            _client_evaluates,
            num_workers=self.workers,
            surrogate="RF",
            seed=seed,
        )

    def setup(self) -> str:
        self.setups += 1
        self.model = _train_runtime_model(self.model_samples)
        self.root = self.workdir / f"journal-{self.setups}"
        self.registry = CampaignRegistry({"rf": self._template}, root=self.root)
        self.frontend = StudyFrontend(self.registry).start()
        return _model_digest(self.model)

    def _poll(self) -> Dict:
        with urllib.request.urlopen(self.frontend.address + "/studies") as response:
            return json.loads(response.read().decode("utf-8"))

    def prepare_round(self, index: int, cohort: int) -> tuple:
        return index, cohort

    def _client(self, name: str, seed: int) -> HTTPStudyClient:
        return HTTPStudyClient(
            self.frontend.address, name, template="rf", seed=seed, max_time=self.max_time
        )

    def run_round(self, state: tuple) -> RoundResult:
        index, cohort = state
        result = RoundResult()
        names = [f"r{index}-s{i}" for i in range(self.studies)]
        seeds = [_campaign_seed(self.seed, cohort, i) for i in range(self.studies)]
        models = [_model_copy(self.model, seed) for seed in seeds]
        evaluated = [0] * self.studies
        evicted = [False] * self.studies
        clients: List[Optional[HTTPStudyClient]] = [None] * self.studies
        clock = time.perf_counter

        def attempt(call, latencies=None):
            result.attempted += 1
            start = clock()
            try:
                value = call()
            except (RegistryError, OSError, ValueError) as error:
                result.failed += 1
                result.http_errors += 1
                result.errors.append(f"{self.name}: request failed: {error!r}")
                raise
            if latencies is not None:
                latencies.append(1e3 * (clock() - start))
            return value

        active = list(range(self.studies))
        try:
            for i in active:
                clients[i] = attempt(lambda: self._client(names[i], seeds[i]))
            while active:
                attempt(self.poll, result.status_ms)
                for i in list(active):
                    batch = attempt(clients[i].suggest, result.request_ms)
                    if batch is None:
                        active.remove(i)
                        continue
                    runtimes = models[i].run_many(batch)
                    attempt(lambda: clients[i].report(runtimes), result.request_ms)
                    evaluated[i] += len(batch)
                    if not evicted[i] and evaluated[i] >= self.evict_at:
                        # Evict midway, then re-attach over POST /studies.
                        evicted[i] = True
                        self.registry.evict(names[i])
                        clients[i] = attempt(lambda: self._client(names[i], seeds[i]))
        except (RegistryError, OSError, ValueError):
            return result
        result.evals = sum(evaluated)
        return result

    def finish_round(self, state: tuple, result: RoundResult) -> None:
        """Collect the round's results, then evict its studies (untimed)."""
        index, _ = state
        names = [f"r{index}-s{i}" for i in range(self.studies)]
        if result.failed == 0:
            result.outcomes = [outcome(self.registry.result(name)) for name in names]
        for name in names:
            if name in self.registry.study_names():
                self.registry.evict(name)
        result.journal_bytes = sum(
            path.stat().st_size
            for name in names
            for path in (self.root / name).iterdir()
            if path.is_file()
        )

    def solo_outcome(self, index: int) -> tuple:
        """Study ``index`` of cohort 0 driven in process by a StudyClient, never evicted."""
        registry = CampaignRegistry({"rf": self._template}, root=self.workdir / "check")
        seed = _campaign_seed(self.seed, 0, index)
        client = StudyClient(
            registry, f"check-s{index}", template="rf", seed=seed, max_time=self.max_time
        )
        client.run(_model_copy(self.model, seed))
        return outcome(client.result())

    def close(self) -> None:
        if self.frontend is not None:
            self.frontend.stop()
            self.frontend = None


WORKLOADS = {
    workload.name: workload for workload in (HepSimFleet, SurrogateFleet, HttpAskTell)
}
