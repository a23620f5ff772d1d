"""Span tracer for the benchmark's traced run.

Spans are opened by benchmark-side wrappers around public functions of the
program (see :mod:`perfbench.layers`).  Each span records its parent: the top
of the calling thread's span stack, or — for a thread whose stack is empty —
the span the tracer is currently *adopting for* (the HTTP client's request
span while the server thread handles that request).  A span's **self time**
is its duration minus the durations of its direct children, so the self times
of every span under one root, the root's own included, sum exactly to the
root's wall time.  The root's own self time is the work no wrapped layer
claims (``unattributed_s``).

Everything is kept in memory; :meth:`Tracer.self_times` and
:meth:`Tracer.counts` read it out when the run ends.
"""

from __future__ import annotations

import re
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

__all__ = ["METRIC_NAME", "Span", "Tracer", "check_metric_name", "metric_of_span"]

#: Metric and workload names: a letter or digit, then at most 63 letters,
#: digits, ``_``, ``.`` or ``-``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ValueError if it breaks the rule."""
    if not METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def metric_of_span(span_name: str) -> str:
    """The self-time metric of a span: ``a.b`` → ``a.b_s``, ``a`` → ``a.self_s``."""
    return check_metric_name(
        span_name + "_s" if "." in span_name else span_name + ".self_s"
    )


class Span:
    """One open span: its name, root, parent and the time its children took."""

    __slots__ = ("name", "root", "parent", "start", "child_s")

    def __init__(self, name: str, root: str, parent: Optional["Span"], start: float):
        self.name = name
        self.root = root
        self.parent = parent
        self.start = start
        self.child_s = 0.0

    def inside(self, name: str) -> bool:
        """Whether an enclosing span (not this one) carries ``name``."""
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    """In-memory span recorder with per-(root, span) self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._self_s: Dict[tuple, float] = defaultdict(float)
        self._wall_s: Dict[str, float] = defaultdict(float)
        self._counts: Dict[tuple, float] = defaultdict(float)
        self._local = threading.local()
        #: Span that parents spans opened by threads with an empty stack.
        self.adopter: Optional[Span] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread (or the adopter)."""
        stack = self._stack()
        return stack[-1] if stack else self.adopter

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the enclosed block as one span named ``name``.

        Outside any span the block becomes a root span, named ``name`` too.
        """
        stack = self._stack()
        parent = stack[-1] if stack else self.adopter
        root = name if parent is None else parent.root
        span = Span(name, root, parent, self.clock())
        stack.append(span)
        try:
            yield span
        finally:
            duration = self.clock() - span.start
            stack.pop()
            self._self_s[(root, name)] += duration - span.child_s
            if parent is None:
                self._wall_s[root] += duration
            else:
                parent.child_s += duration

    @contextmanager
    def adopting(self, span: Span) -> Iterator[None]:
        """Parent other threads' top-level spans to ``span`` while open."""
        previous, self.adopter = self.adopter, span
        try:
            yield
        finally:
            self.adopter = previous

    def count(self, root: str, name: str, amount: float = 1) -> None:
        self._counts[(root, name)] += amount

    def self_times(self, root: str) -> Dict[str, float]:
        """Self time per span name under ``root`` (the root's own included)."""
        return {name: s for (r, name), s in self._self_s.items() if r == root}

    def wall(self, root: str) -> float:
        """Total duration of the root spans named ``root``."""
        return self._wall_s.get(root, 0.0)

    def counts(self, root: str) -> Dict[str, float]:
        return {name: c for (r, name), c in self._counts.items() if r == root}

    def reset(self) -> None:
        self._self_s.clear()
        self._wall_s.clear()
        self._counts.clear()
