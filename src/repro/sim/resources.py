"""Shared resources for the discrete-event simulation kernel.

Three resource flavours are provided, mirroring the abstractions needed by the
Mochi/HEPnOS simulators:

* :class:`Resource` — a capacity-limited resource with FIFO queueing.  Used to
  model CPU cores, execution streams, network links and database locks.
* :class:`PriorityResource` — same, but requests carry a priority and the
  queue is served lowest-priority-value first (used for ``prio_wait``
  Argobots pools).
* :class:`Store` — an unbounded or bounded buffer of Python objects with
  blocking ``get``/``put`` (used for work queues, RPC mailboxes and the data
  loader's shared file list).
* :class:`Container` — a continuous level (used for memory budgets).

All blocking operations return :class:`~repro.sim.engine.Event` objects that a
process must ``yield``.

Leaving a ``with resource.request()`` block releases the request at once,
without scheduling an event: nothing can wait on that release, and an event
firing at ``now`` with no callbacks changes neither the clock nor the order
of the events that remain.  Releasing a request that is still queued (its
process was interrupted while waiting) withdraws it from the queue.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Deque, List, Optional

from repro.sim.engine import NORMAL_PRIORITY, Environment, Event, SimulationError

__all__ = ["Request", "Release", "Resource", "PriorityResource", "Store", "Container"]


class Request(Event):
    """Event representing a pending or granted resource request.

    Supports use as a context manager inside a process::

        with resource.request() as req:
            yield req
            yield env.timeout(1.0)
    """

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        resource._add_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource._do_release(self)


class Release(Event):
    """Event representing a resource release (fires immediately)."""

    __slots__ = ("resource", "request")

    def __init__(self, resource: "Resource", request: Request):
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        resource._do_release(request)
        self.succeed()


class Resource:
    """A capacity-limited resource with FIFO queueing.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Number of simultaneous users (must be >= 1).
    name:
        Optional label used in ``repr`` and statistics.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.name = name
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()
        # statistics
        self._created = env.now
        self._busy_time = 0.0
        self._last_change = env.now
        self._granted = 0

    # ------------------------------------------------------------- properties
    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting."""
        return len(self.queue)

    @property
    def granted(self) -> int:
        """Total number of requests granted so far."""
        return self._granted

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of capacity-time used since creation.

        Parameters
        ----------
        horizon:
            Time window to normalise against.  Defaults to the elapsed
            simulation time since the resource was created.
        """
        self._account()
        elapsed = horizon if horizon is not None else self.env.now - self._created
        if elapsed <= 0:
            return 0.0
        return self._busy_time / (elapsed * self.capacity)

    # ----------------------------------------------------------------- public
    def request(self, priority: int = 0) -> Request:
        """Request one unit of the resource (returns a yieldable event)."""
        return Request(self, priority)

    def release(self, request: Request) -> Release:
        """Release a granted request, or withdraw one that is still queued."""
        return Release(self, request)

    # --------------------------------------------------------------- internal
    def _account(self) -> None:
        now = self.env._now
        self._busy_time += len(self.users) * (now - self._last_change)
        self._last_change = now

    def _add_request(self, request: Request) -> None:
        self._account()
        if len(self.users) < self.capacity:
            self.users.append(request)
            self._granted += 1
            # Uncontended grant, the common case: push exactly the heap entry
            # ``request.succeed()`` would, without its two calls.
            request._ok = True
            request._triggered = True
            env = self.env
            heapq.heappush(env._heap, (env._now, NORMAL_PRIORITY, next(env._seq), request))
        else:
            self._enqueue(request)

    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)

    def _dequeue(self) -> Optional[Request]:
        if self.queue:
            return self.queue.popleft()
        return None

    def _cancel(self, request: Request) -> bool:
        """Withdraw a queued ``request``; False if it is not queued."""
        try:
            self.queue.remove(request)
        except ValueError:
            return False
        return True

    def _do_release(self, request: Request) -> None:
        self._account()
        try:
            self.users.remove(request)
        except ValueError:
            if self._cancel(request):
                return
            raise SimulationError(
                "released a request that does not hold the resource"
            ) from None
        nxt = self._dequeue()
        if nxt is not None:
            self.users.append(nxt)
            self._granted += 1
            nxt.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Resource{label} capacity={self.capacity} "
            f"count={self.count} queue={self.queue_length}>"
        )


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is served by ascending priority value."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        super().__init__(env, capacity, name)
        self._pqueue: List[tuple] = []
        self._counter = itertools.count()

    @property
    def queue_length(self) -> int:
        return len(self._pqueue)

    def _enqueue(self, request: Request) -> None:
        heapq.heappush(self._pqueue, (request.priority, next(self._counter), request))

    def _dequeue(self) -> Optional[Request]:
        if self._pqueue:
            return heapq.heappop(self._pqueue)[2]
        return None

    def _cancel(self, request: Request) -> bool:
        for index, entry in enumerate(self._pqueue):
            if entry[2] is request:
                del self._pqueue[index]
                heapq.heapify(self._pqueue)
                return True
        return False


class StorePut(Event):
    """Pending put into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Pending get from a :class:`Store`."""

    __slots__ = ("filter_fn",)

    def __init__(self, store: "Store", filter_fn=None):
        super().__init__(store.env)
        self.filter_fn = filter_fn
        store._get_queue.append(self)
        store._trigger()


class Store:
    """A buffer of Python objects with blocking ``put``/``get``.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Maximum number of buffered items (``float('inf')`` for unbounded).
    """

    def __init__(self, env: Environment, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    # ------------------------------------------------------------- properties
    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self.items)

    # ----------------------------------------------------------------- public
    def put(self, item: Any) -> StorePut:
        """Put ``item`` into the store (blocks while full)."""
        return StorePut(self, item)

    def get(self, filter_fn=None) -> StoreGet:
        """Get the oldest item (optionally the oldest matching ``filter_fn``)."""
        return StoreGet(self, filter_fn)

    def try_get(self) -> Any:
        """Non-blocking get.

        Returns the oldest item, or raises :class:`SimulationError` if empty.
        """
        if not self.items:
            raise SimulationError("store is empty")
        item = self.items.popleft()
        self._trigger()
        return item

    # --------------------------------------------------------------- internal
    def _trigger(self) -> None:
        # Serve puts while space remains.
        progressed = True
        while progressed:
            progressed = False
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Serve gets while items remain.
            remaining: Deque[StoreGet] = deque()
            while self._get_queue and self.items:
                get = self._get_queue.popleft()
                if get.filter_fn is None:
                    item = self.items.popleft()
                    get.succeed(item)
                    progressed = True
                else:
                    for idx, candidate in enumerate(self.items):
                        if get.filter_fn(candidate):
                            del self.items[idx]
                            get.succeed(candidate)
                            progressed = True
                            break
                    else:
                        remaining.append(get)
            while self._get_queue:
                remaining.append(self._get_queue.popleft())
            self._get_queue = remaining

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        label = f" {self.name!r}" if self.name else ""
        return f"<Store{label} level={self.level}/{self.capacity}>"


class ContainerPut(Event):
    """Pending put of an amount into a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._put_queue.append(self)
        container._trigger()


class ContainerGet(Event):
    """Pending get of an amount from a :class:`Container`."""

    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount
        container._get_queue.append(self)
        container._trigger()


class Container:
    """A continuous-level container (e.g. a memory budget in bytes)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "",
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if init < 0 or init > capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._level = float(init)
        self._put_queue: Deque[ContainerPut] = deque()
        self._get_queue: Deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        """Current fill level."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount`` (blocks while it would overflow)."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Remove ``amount`` (blocks until available)."""
        return ContainerGet(self, amount)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue:
                put = self._put_queue[0]
                if self._level + put.amount <= self.capacity:
                    self._put_queue.popleft()
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_queue:
                get = self._get_queue[0]
                if self._level >= get.amount:
                    self._get_queue.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progressed = True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        label = f" {self.name!r}" if self.name else ""
        return f"<Container{label} level={self._level}/{self.capacity}>"
