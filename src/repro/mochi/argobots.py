"""Argobots: execution streams and thread pools.

Argobots is Mochi's lightweight user-level threading runtime.  HEPnOS exposes
two of its knobs in the paper's parameter space:

* the number of RPC-handling execution streams (``NumRPCthreads``), and
* the pool type each provider uses (``ThreadPoolType`` in
  {``fifo``, ``fifo_wait``, ``prio_wait``}).

The simulation models a pool as a capacity-limited resource whose capacity is
the number of execution streams attached to it.  The pool kind changes two
things:

* the per-work-item dispatch overhead (``prio_wait`` pays a small extra cost
  for priority handling; ``*_wait`` kinds pay a wake-up latency when the pool
  was idle), and
* whether the execution streams *busy-wait* when the pool is empty (``fifo``)
  — busy-waiting streams occupy CPU cores all the time, which matters for the
  node-level core-contention model in :mod:`repro.hep.platform`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.sim import Environment, PriorityResource, Resource

__all__ = ["PoolKind", "PoolCostModel", "Pool"]


class PoolKind(str, Enum):
    """Argobots pool flavours exposed by HEPnOS's configuration."""

    #: Busy-polling FIFO pool: lowest dispatch latency, burns idle cores.
    FIFO = "fifo"
    #: Blocking FIFO pool: sleeps when idle, pays a wake-up latency.
    FIFO_WAIT = "fifo_wait"
    #: Blocking priority pool: like ``fifo_wait`` plus priority ordering.
    PRIO_WAIT = "prio_wait"


@dataclass(frozen=True)
class PoolCostModel:
    """Scheduling cost constants for the Argobots pools.

    Attributes
    ----------
    dispatch_overhead:
        Cost to pop and dispatch one work item, seconds.
    wakeup_latency:
        Latency to wake a sleeping execution stream (``*_wait`` pools only),
        seconds.
    priority_overhead:
        Extra per-item cost of maintaining the priority queue
        (``prio_wait`` only), seconds.
    """

    dispatch_overhead: float = 1.0e-6
    wakeup_latency: float = 8.0e-6
    priority_overhead: float = 0.5e-6

    def per_item_overhead(self, kind: PoolKind, was_idle: bool) -> float:
        """Scheduling overhead charged to one work item."""
        cost = self.dispatch_overhead
        if kind in (PoolKind.FIFO_WAIT, PoolKind.PRIO_WAIT) and was_idle:
            cost += self.wakeup_latency
        if kind is PoolKind.PRIO_WAIT:
            cost += self.priority_overhead
        return cost


class Pool:
    """An Argobots pool executing work items on a set of execution streams.

    Parameters
    ----------
    env:
        Simulation environment.
    kind:
        :class:`PoolKind` (the paper's ``ThreadPoolType``).
    num_xstreams:
        Number of execution streams pulling from this pool (its concurrency).
    name:
        Optional label.
    cost_model:
        Scheduling cost constants.
    """

    def __init__(
        self,
        env: Environment,
        kind: PoolKind = PoolKind.FIFO_WAIT,
        num_xstreams: int = 1,
        name: str = "",
        cost_model: Optional[PoolCostModel] = None,
    ):
        if num_xstreams < 1:
            raise ValueError("a pool needs at least one execution stream")
        self.env = env
        self.kind = PoolKind(kind)
        self.num_xstreams = int(num_xstreams)
        self.name = name
        self.cost_model = cost_model or PoolCostModel()
        if self.kind is PoolKind.PRIO_WAIT:
            self._resource: Resource = PriorityResource(
                env, capacity=self.num_xstreams, name=f"pool:{name}"
            )
        else:
            self._resource = Resource(env, capacity=self.num_xstreams, name=f"pool:{name}")
        self.items_executed = 0
        self.busy_time = 0.0
        self._created = env.now

    # ------------------------------------------------------------- properties
    @property
    def queue_length(self) -> int:
        """Number of work items waiting for an execution stream."""
        return self._resource.queue_length

    @property
    def active(self) -> int:
        """Number of work items currently executing."""
        return self._resource.count

    @property
    def busy_spins_when_idle(self) -> bool:
        """Whether this pool's execution streams occupy cores while idle."""
        return self.kind is PoolKind.FIFO

    def cpu_occupancy(self) -> float:
        """Number of cores this pool permanently pins (for contention models).

        A busy-polling ``fifo`` pool pins all of its execution streams; the
        blocking pools only consume cores while actually running work, which
        the caller accounts for separately.
        """
        return float(self.num_xstreams) if self.busy_spins_when_idle else 0.0

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of stream-time spent executing work items.

        ``horizon`` defaults to the simulated time since the pool was created.
        """
        elapsed = horizon if horizon is not None else self.env.now - self._created
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.num_xstreams)

    # -------------------------------------------------------------- execution
    def execute(self, work_time: float, priority: int = 0):
        """DES process generator: run one work item of ``work_time`` seconds.

        The item queues for an execution stream, pays the kind-dependent
        scheduling overhead and then holds the stream for ``work_time``.
        Returns the total time spent in the pool (queueing excluded).
        """
        if work_time < 0:
            raise ValueError("work_time must be non-negative")
        was_idle = self.active == 0 and self.queue_length == 0
        overhead = self.cost_model.per_item_overhead(self.kind, was_idle)
        with self._resource.request(priority=priority) as req:
            yield req
            total = overhead + work_time
            yield self.env.timeout(total)
        self.items_executed += 1
        self.busy_time += total
        return total

    def run(self, work, priority: int = 0):
        """DES process generator: execute a nested DES generator in this pool.

        Unlike :meth:`execute`, which charges a fixed ``work_time``, this
        variant holds one execution stream while the nested generator ``work``
        runs — including any further waiting it does (e.g. on a database
        write lock).  This is how RPC handlers that touch Yokan databases are
        modelled.

        Returns whatever the nested generator returns.
        """
        was_idle = self.active == 0 and self.queue_length == 0
        overhead = self.cost_model.per_item_overhead(self.kind, was_idle)
        with self._resource.request(priority=priority) as req:
            yield req
            start = self.env.now
            yield self.env.timeout(overhead)
            result = yield from work
            self.busy_time += self.env.now - start
        self.items_executed += 1
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Pool {self.name!r} kind={self.kind.value} xstreams={self.num_xstreams} "
            f"active={self.active} queued={self.queue_length}>"
        )
