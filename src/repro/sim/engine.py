"""Core discrete-event simulation engine.

The engine follows the classic event-list design: an
:class:`Environment` owns a priority queue (binary heap) of scheduled
:class:`Event` objects, ordered by ``(time, priority, sequence)``.  Simulated
activities are expressed as Python generators wrapped in
:class:`repro.sim.process.Process`; a process yields events and is resumed
when the yielded event fires.

Design notes
------------
* Virtual time is a ``float`` in arbitrary units (the rest of the repository
  uses seconds).
* Events fire exactly once.  Firing an already-fired event raises
  :class:`SimulationError`.
* ``Environment.run(until=...)`` advances the clock until the heap is empty or
  the given time is reached, whichever comes first.
* The engine is single-threaded and deterministic: with the same schedule of
  events it always produces the same trajectory, which is essential for
  reproducible benchmarks.
* Every event that reaches the heap is dispatched by :meth:`Environment.step`,
  so patching ``Environment.step`` observes all of them.  Events that would
  fire at ``now`` with no callbacks (the release at the end of a
  ``with resource.request()`` block) are not scheduled at all.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Environment",
]

#: Default priority for scheduled events (smaller fires earlier at equal time).
NORMAL_PRIORITY = 1
#: Priority used for events that must fire before normal ones at equal time.
URGENT_PRIORITY = 0


class SimulationError(RuntimeError):
    """Raised for illegal operations on the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when it is interrupted.

    Parameters
    ----------
    cause:
        Arbitrary object describing why the interrupt happened.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A single occurrence inside the simulation.

    An event has three states: *pending* (created but not triggered),
    *triggered* (scheduled on the environment's heap) and *processed* (its
    callbacks have run).  Callbacks are callables taking the event itself.

    Attributes
    ----------
    env:
        The owning :class:`Environment`.
    callbacks:
        List of callables invoked when the event is processed.  ``None`` once
        the event has been processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._defused = False

    # ------------------------------------------------------------------ state
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (value), False if it failed."""
        if self._ok is None:
            raise SimulationError("event has not fired yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (or the exception if it failed)."""
        if self._ok is None:
            raise SimulationError("event has not fired yet")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not escalate at run()."""
        self._defused = True

    # ------------------------------------------------------------- triggering
    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.env._schedule(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fire with an exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env._schedule(self, delay=0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy state from another fired event and schedule (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # --------------------------------------------------------------- chaining
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when this event is processed."""
        if self.callbacks is None:
            # Already processed: run immediately to keep semantics simple.
            callback(self)
        else:
            self.callbacks.append(callback)

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Sets every ``Event`` slot itself and pushes the heap entry directly:
        # a timeout is the most frequent event in the HEP workflow.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._defused = False
        self._delay = delay
        heappush(env._heap, (env._now + delay, NORMAL_PRIORITY, next(env._seq), self))

    @property
    def delay(self) -> float:
        """The delay this timeout was created with."""
        return self._delay


class _Condition(Event):
    """Base class for AllOf / AnyOf composite events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("events belong to different environments")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            ev.add_callback(self._check)

    def _collect_values(self) -> dict:
        return {
            ev: ev._value
            for ev in self._events
            if ev._triggered and ev._ok is not None and ev.processed
        }

    def _check(self, event: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when *all* constituent events have fired.

    Fails immediately if any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed({ev: ev._value for ev in self._events})


class AnyOf(_Condition):
    """Fires when *any* constituent event has fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed({event: event._value})


class Environment:
    """The simulation environment: virtual clock plus event heap.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (default 0.0).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._active_process = None

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self):
        """The process currently being resumed (or ``None``)."""
        return self._active_process

    # ------------------------------------------------------------ event kinds
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Wrap ``generator`` in a :class:`~repro.sim.process.Process`."""
        from repro.sim.process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` fired."""
        return AnyOf(self, events)

    # ------------------------------------------------------------- scheduling
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL_PRIORITY
    ) -> None:
        heappush(self._heap, (self._now + delay, priority, next(self._seq), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        SimulationError
            If there is no event left to process.
        """
        if not self._heap:
            raise SimulationError("no scheduled events")
        when, _priority, _seq, event = heappop(self._heap)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            raise SimulationError("event processed twice")
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # An un-handled failure escalates to the run() caller.
            exc = event._value
            raise exc

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        Parameters
        ----------
        until:
            If given, stop once the clock would pass this time (the clock is
            then set to exactly ``until``).  If ``None``, run until no events
            remain.
        """
        if until is not None and until < self._now:
            raise ValueError(
                f"until ({until}) must not be before current time ({self._now})"
            )
        # ``step`` is looked up once per run, after any class-level patching,
        # and still dispatches every event.
        heap = self._heap
        step = self.step
        if until is None:
            while heap:
                step()
            return
        while heap:
            if heap[0][0] > until:
                break
            step()
        self._now = until
