"""Which public functions of the program the traced run wraps, per layer.

Each entry names a function or method, the span it opens and, where the
layer counts work, how much one outermost call adds to a counter (a call
nested inside a span of the same name is not counted again, so a fleet of
one that delegates to the solo path counts once).  Functions that
:mod:`repro.service.runner` imported by name are wrapped in both modules.

Span → metric map (self times are ``<span>_s``, or ``<span>.self_s`` for
one-word spans; see :func:`perfbench.tracer.metric_of_span`):

=================  ==========================================================
span               wrapped calls
=================  ==========================================================
``sim``            ``HEPWorkflow.run`` (``Environment.step`` is counted only)
``ask.self``       ``BayesianOptimizer.prepare_ask``/``finish_ask``,
                   ``prepare_ask_fleet``
``ask.score``      ``predict_forest_fleet``, ``GPFleet.predict``
``tell.ingest``    ``BayesianOptimizer.ingest``
``tell.fit``       ``BayesianOptimizer.fit_now``, ``fit_forest_fleet``,
                   ``GPFleet.fit``/``partial_fit``
``vae.fit``        ``TabularVAE.fit``, ``VAEFleet.fit``
``runner``         ``CampaignRunner.run``/``tick``
``runtime_model``  ``SurrogateRuntime.train``/``__call__``/``run_many``,
                   ``SurrogateRuntimeFleet.run_batch``
``journal.*``      ``CampaignJournal.append_rows``/``append_intervals``
                   (append), ``checkpoint``, ``attach``/``read_data`` (attach)
``registry.*``     ``CampaignRegistry.suggest``/``report``/``status``/
                   ``statuses``/``create_study``/``evict``
``http``           ``HTTPStudyClient.__init__``/``suggest``/``report`` and the
                   benchmark's own ``GET /studies`` poll; registry spans of
                   the server thread are adopted as its children
=================  ==========================================================
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

from perfbench.tracer import Tracer

__all__ = ["HTTP_REQUEST", "SPANS", "instrumented"]

#: Every span name the wrappers open, in report order.
SPANS = (
    "sim",
    "ask.self",
    "ask.score",
    "tell.ingest",
    "tell.fit",
    "vae.fit",
    "runner",
    "runtime_model",
    "journal.append",
    "journal.checkpoint",
    "journal.attach",
    "registry.suggest",
    "registry.report",
    "registry.status",
    "registry.create",
    "registry.evict",
    "http",
)


def _one(args, kwargs) -> int:
    return 1


#: Counter of one HTTP request, for client calls wrapped as ``http`` spans.
HTTP_REQUEST = (("http.requests", _one),)


def _first_len(args, kwargs) -> int:
    return len(args[0])


def _second_len(args, kwargs) -> int:
    return len(args[1])


def _targets() -> List[Tuple[object, str, str, Optional[Tuple[Tuple[str, Callable], ...]]]]:
    """``(owner, attribute, span, ((counter, amount_of_call), ...))`` entries."""
    from repro.core import optimizer as optimizer_module
    from repro.core.journal import CampaignJournal
    from repro.core.optimizer import BayesianOptimizer
    from repro.core.surrogate import random_forest
    from repro.core.surrogate.gaussian_process import GPFleet
    from repro.core.vae.tvae import TabularVAE, VAEFleet
    from repro.hep.surrogate_runtime import SurrogateRuntime, SurrogateRuntimeFleet
    from repro.hep.workflow import HEPWorkflow
    from repro.service import runner as runner_module
    from repro.service.frontend import HTTPStudyClient
    from repro.service.registry import CampaignRegistry

    fleet_fit = (("tell.fits", _second_len), ("tell.fleet_members", _second_len))
    return [
        (HEPWorkflow, "run", "sim", (("sim.evals", _one),)),
        (BayesianOptimizer, "prepare_ask", "ask.self", (("ask.calls", _one),)),
        (BayesianOptimizer, "finish_ask", "ask.self", None),
        (optimizer_module, "prepare_ask_fleet", "ask.self", (("ask.calls", _first_len),)),
        (runner_module, "prepare_ask_fleet", "ask.self", (("ask.calls", _first_len),)),
        (random_forest, "predict_forest_fleet", "ask.score", None),
        (runner_module, "predict_forest_fleet", "ask.score", None),
        (GPFleet, "predict", "ask.score", None),
        (BayesianOptimizer, "ingest", "tell.ingest", None),
        (BayesianOptimizer, "fit_now", "tell.fit", (("tell.fits", _one),)),
        (random_forest, "fit_forest_fleet", "tell.fit",
         (("tell.fits", _first_len), ("tell.fleet_members", _first_len))),
        (runner_module, "fit_forest_fleet", "tell.fit",
         (("tell.fits", _first_len), ("tell.fleet_members", _first_len))),
        (GPFleet, "fit", "tell.fit", fleet_fit),
        (GPFleet, "partial_fit", "tell.fit", fleet_fit),
        (TabularVAE, "fit", "vae.fit", (("vae.fits", _one),)),
        (VAEFleet, "fit", "vae.fit", (("vae.fits", _second_len),)),
        (runner_module.CampaignRunner, "run", "runner", None),
        (runner_module.CampaignRunner, "tick", "runner", (("runner.ticks", _one),)),
        (SurrogateRuntime, "train", "runtime_model", None),
        (SurrogateRuntime, "__call__", "runtime_model", None),
        (SurrogateRuntime, "run_many", "runtime_model", None),
        (SurrogateRuntimeFleet, "run_batch", "runtime_model", None),
        (CampaignJournal, "append_rows", "journal.append", (("journal.appends", _one),)),
        (CampaignJournal, "append_intervals", "journal.append", None),
        (CampaignJournal, "checkpoint", "journal.checkpoint",
         (("journal.checkpoints", _one),)),
        (CampaignJournal, "attach", "journal.attach", None),
        (CampaignJournal, "read_data", "journal.attach", None),
        (CampaignRegistry, "suggest", "registry.suggest", None),
        (CampaignRegistry, "report", "registry.report", None),
        (CampaignRegistry, "status", "registry.status", None),
        (CampaignRegistry, "statuses", "registry.status", None),
        (CampaignRegistry, "create_study", "registry.create", None),
        (CampaignRegistry, "evict", "registry.evict", None),
        (HTTPStudyClient, "__init__", "http", HTTP_REQUEST),
        (HTTPStudyClient, "suggest", "http", HTTP_REQUEST),
        (HTTPStudyClient, "report", "http", HTTP_REQUEST),
    ]


def traced(tracer: Tracer, fn: Callable, span: str, counters=None) -> Callable:
    """``fn`` wrapped in a span; HTTP client spans adopt the server's spans.

    ``counters`` pairs counter names with the amount one call adds, computed
    from the call's arguments (for unbound methods ``args[0]`` is ``self``).
    """
    adopt = span == "http"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span) as opened:
            if counters and not opened.inside(span):
                for name, amount in counters:
                    tracer.count(opened.root, name, amount(args, kwargs))
            if adopt:
                with tracer.adopting(opened):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrumented(tracer: Tracer, extra=()) -> Iterator[None]:
    """Install every layer wrapper for the duration of the block.

    ``extra`` adds ``(owner, attribute, span, counters)`` entries for the
    benchmark's own calls into a layer (the HTTP workload's status poll).

    ``Environment.step`` is counted, not timed (a span per event would cost
    more than the event): its calls inside each ``sim`` span are added to
    that span root's ``sim.steps`` counter.
    """
    from repro.sim.engine import Environment

    saved = []
    steps = [0]
    step = Environment.step

    def counted_step(self):
        steps[0] += 1
        return step(self)

    def count_steps(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = steps[0]
            try:
                return fn(*args, **kwargs)
            finally:
                current = tracer.current()
                if current is not None:
                    tracer.count(current.root, "sim.steps", steps[0] - before)

        return wrapper

    try:
        saved.append((Environment, "step", step))
        Environment.step = counted_step
        for owner, attribute, span, counters in [*_targets(), *extra]:
            raw = vars(owner)[attribute]
            saved.append((owner, attribute, raw))
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            function = raw.__func__ if kind else raw
            if span == "sim":
                # Steps are credited inside the sim span, so to its root.
                function = count_steps(function)
            wrapped = traced(tracer, function, span, counters)
            setattr(owner, attribute, kind(wrapped) if kind else wrapped)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
