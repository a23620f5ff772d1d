"""Generator-based simulated processes.

A :class:`Process` drives a Python generator: every value the generator yields
must be an :class:`~repro.sim.engine.Event`; the process suspends until that
event fires and is then resumed with the event's value (or, if the event
failed, the exception is thrown into the generator).

A process is itself an event: it fires with the generator's return value when
the generator finishes, so processes can wait for each other simply by
yielding them.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.engine import Event, Interrupt, SimulationError

__all__ = ["Process"]


class Process(Event):
    """A running simulated activity backed by a generator.

    Parameters
    ----------
    env:
        Owning environment.
    generator:
        A generator yielding :class:`Event` instances.

    Notes
    -----
    The process starts automatically: an initialisation event is scheduled at
    the current simulation time, so the generator body begins executing on the
    next :meth:`Environment.step`.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        # Kick-start: schedule an immediate init event whose callback resumes us.
        init = Event(env)
        init._ok = True
        init._value = None
        init._triggered = True
        init.callbacks.append(self._resume)
        env._schedule(init)

    # -------------------------------------------------------------- interface
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process, raising :class:`Interrupt` inside it.

        Interrupting a finished process raises :class:`SimulationError`.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        exc = Interrupt(cause)
        # Deliver asynchronously via a failed event so ordering stays with
        # the event heap.
        event = Event(self.env)
        event._ok = False
        event._value = exc
        event._defused = True
        event._triggered = True
        self.env._schedule(event, delay=0.0)
        event.add_callback(self._resume)

    # -------------------------------------------------------------- internals
    def _resume(self, event: Event) -> None:
        if self._triggered:
            # The process already finished (e.g. it returned after handling an
            # interrupt); ignore stale wake-ups from events it used to wait on.
            return
        if self._target is not None and event is not self._target:
            # Only the event we are waiting on — or an interrupt — may resume
            # the process.  Anything else is a stale callback.
            is_interrupt = event._ok is False and isinstance(event._value, Interrupt)
            if not is_interrupt:
                return
        env = self.env
        env._active_process = self
        target = event
        while True:
            try:
                if target._ok:
                    next_event = self._generator.send(target._value)
                else:
                    # The failure is being delivered to this process, so it
                    # must not escalate out of Environment.step() as unhandled.
                    target._defused = True
                    next_event = self._generator.throw(target._value)
            except StopIteration as stop:
                env._active_process = None
                self._target = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._target = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                env._active_process = None
                error = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                self.fail(error)
                return

            callbacks = next_event.callbacks
            if callbacks is None:
                # The event already fired and ran callbacks; loop synchronously.
                target = next_event
                continue

            self._target = next_event
            callbacks.append(self._resume)
            env._active_process = None
            return
