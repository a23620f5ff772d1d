"""Common interface of the compared autotuning frameworks.

Every framework is driven the same way in the Fig. 5 experiments:

* it receives the search space, the run function (the surrogate runtime model
  of the workflow in the paper's laptop experiment), a search-time budget and
  the *same* 10 initial random samples as every other framework;
* it may receive source data (a previous run's history) for transfer
  learning;
* it returns a :class:`FrameworkResult` with its history, from which the
  best-configuration, mean-best and number-of-evaluations metrics are
  computed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.core.history import SearchHistory
from repro.core.objective import Objective
from repro.core.space import Configuration, SearchSpace

__all__ = ["Framework", "FrameworkResult", "run_framework_suite"]


@dataclass
class FrameworkResult:
    """Outcome of one framework run (a thin, framework-agnostic view)."""

    name: str
    history: SearchHistory
    best_configuration: Optional[Configuration]
    best_runtime: float
    num_evaluations: int
    worker_utilization: float
    search_time: float

    @classmethod
    def from_history(
        cls,
        name: str,
        history: SearchHistory,
        search_time: float,
        worker_utilization: float = float("nan"),
    ) -> "FrameworkResult":
        """Build a result from a completed history."""
        best = history.best()
        return cls(
            name=name,
            history=history,
            best_configuration=best.configuration if best else None,
            best_runtime=best.runtime if best else float("nan"),
            num_evaluations=len(history),
            worker_utilization=worker_utilization,
            search_time=search_time,
        )


class Framework(ABC):
    """Base class for the compared autotuning frameworks.

    Parameters
    ----------
    space:
        The search space.
    run_function:
        Configuration → run time in seconds (NaN on failure).
    objective:
        Objective transform (defaults to the paper's ``-log(runtime)``).
    seed:
        RNG seed.
    """

    #: Human-readable name used in figures (overridden by subclasses).
    name: str = "framework"

    def __init__(
        self,
        space: SearchSpace,
        run_function: Callable[[Configuration], float],
        objective: Optional[Objective] = None,
        seed: int = 0,
    ):
        self.space = space
        self.run_function = run_function
        self.objective = objective or Objective()
        self.seed = int(seed)

    @abstractmethod
    def run(
        self,
        max_time: float,
        initial_configurations: Optional[Sequence[Configuration]] = None,
        source_history: Optional[SearchHistory] = None,
    ) -> FrameworkResult:
        """Run the framework within ``max_time`` seconds of search time.

        Parameters
        ----------
        max_time:
            Search-time budget (1 hour in the paper's comparison).
        initial_configurations:
            The shared initial samples every framework starts from.
        source_history:
            Optional source-task data enabling the framework's transfer
            learning mode (ignored by frameworks without TL support).
        """

    # ------------------------------------------------------- runner awareness
    def build_search(self, source_history: Optional[SearchHistory] = None):
        """The framework's underlying asynchronous search, if it has one.

        Frameworks that are thin wrappers around
        :class:`~repro.core.search.CBOSearch` return a freshly configured
        search here so a multi-campaign driver
        (:func:`run_framework_suite` with ``runner="batched"``) can advance
        several frameworks over one batch-tick loop.  Sequential two-phase
        algorithms return ``None`` and always execute through :meth:`run`.
        """
        return None

    def result_name(self, source_history: Optional[SearchHistory] = None) -> str:
        """The label under which this framework's result is reported."""
        return self.name


def run_framework_suite(
    frameworks: Sequence[Framework],
    max_time: float,
    initial_configurations: Optional[Sequence[Configuration]] = None,
    source_history: Optional[SearchHistory] = None,
    runner: str = "sequential",
) -> Dict[str, FrameworkResult]:
    """Run several frameworks on the same budget and shared initial samples.

    With ``runner="batched"``, frameworks that expose an underlying
    asynchronous search (:meth:`Framework.build_search`) are advanced
    concurrently by a :class:`~repro.service.CampaignRunner` — their
    surrogate refits fuse into per-tick fleet fits — while the remaining
    frameworks run sequentially.  Note the batched mode interleaves the
    frameworks' run-function calls; with a stateful shared run function
    (e.g. one noisy surrogate-runtime instance) results then differ from the
    sequential mode, which is why it is opt-in.

    Returns ``result name → FrameworkResult`` in framework order.
    """
    if runner not in ("sequential", "batched"):
        raise ValueError(f"unknown runner {runner!r} (expected 'sequential' or 'batched')")
    batched: Dict[int, object] = {}
    if runner == "batched":
        from repro.service import CampaignRunner, CampaignSpec

        pairs = [(f, f.build_search(source_history)) for f in frameworks]
        backed = [(f, search) for f, search in pairs if search is not None]
        if len(backed) > 1:
            specs = [
                CampaignSpec(
                    search=search,
                    max_time=max_time,
                    initial_configurations=initial_configurations,
                    label=framework.result_name(source_history),
                )
                for framework, search in backed
            ]
            search_results = CampaignRunner(specs).run()
            batched = {
                id(framework): search_result
                for (framework, _), search_result in zip(backed, search_results)
            }
        elif backed:
            # A single search-backed framework: run the already-built search
            # directly (re-building through framework.run would repeat any
            # expensive construction, e.g. VAE transfer-prior training).
            framework, search = backed[0]
            batched = {
                id(framework): search.run(
                    max_time=max_time, initial_configurations=initial_configurations
                )
            }
    results: Dict[str, FrameworkResult] = {}
    for framework in frameworks:
        search_result = batched.get(id(framework))
        if search_result is not None:
            name = framework.result_name(source_history)
            results[name] = FrameworkResult.from_history(
                name,
                search_result.history,
                search_time=max_time,
                worker_utilization=search_result.worker_utilization,
            )
        else:
            result = framework.run(
                max_time,
                initial_configurations=initial_configurations,
                source_history=source_history,
            )
            results[result.name] = result
    return results
