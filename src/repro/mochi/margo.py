"""Margo: binds Mercury (networking) and Argobots (threading).

Margo drives Mercury's network progress loop from an Argobots execution
stream and dispatches incoming RPCs to handler pools.  Two of the paper's
parameters live here:

* ``ProgressThread`` (one per component: data loader, HEPnOS servers, PEP
  processes) — whether a *dedicated* execution stream runs the progress loop.
  With a dedicated thread, RPC progress is serviced promptly but one core is
  permanently occupied; without it, progress shares the handler/main stream
  and every RPC pays an extra scheduling delay.
* ``BusySpin`` (common to all components) — whether the progress loop busy
  spins on the network (low latency, core always occupied) or blocks in
  ``epoll`` (higher per-RPC latency, core released while idle).

The :class:`MargoEngine` exposes the resulting per-RPC progress latencies and
the number of cores the engine pins, which feed the node-level contention
model, plus an ``rpc`` process generator that runs a full round trip against a
remote engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.sim import Environment
from repro.mochi.argobots import Pool
from repro.mochi.mercury import NetworkInterface, NetworkModel

__all__ = ["ProgressMode", "ProgressCostModel", "MargoEngine"]


class ProgressMode(str, Enum):
    """How the Mercury progress loop waits for network events."""

    #: Busy polling: minimal latency, permanently occupies a core.
    BUSY_SPIN = "busy_spin"
    #: Blocking ``epoll``: releases the core, pays a wake-up latency per event.
    EPOLL = "epoll"


@dataclass(frozen=True)
class ProgressCostModel:
    """Progress-loop cost constants.

    Attributes
    ----------
    busy_poll_latency:
        Added latency per network event when busy spinning, seconds.
    epoll_latency:
        Added latency per network event when blocking in ``epoll``, seconds.
    shared_progress_penalty:
        Additional delay per RPC when no dedicated progress thread exists and
        the progress loop competes with RPC handlers / application work,
        seconds.
    """

    busy_poll_latency: float = 1.0e-6
    epoll_latency: float = 30.0e-6
    shared_progress_penalty: float = 50.0e-6

    def per_event_latency(self, mode: ProgressMode, dedicated_thread: bool) -> float:
        """Progress latency charged per network event on one side of an RPC."""
        base = (
            self.busy_poll_latency
            if mode is ProgressMode.BUSY_SPIN
            else self.epoll_latency
        )
        if not dedicated_thread:
            base += self.shared_progress_penalty
        return base


class MargoEngine:
    """One Margo instance: a process's networking + threading runtime.

    Parameters
    ----------
    env:
        Simulation environment.
    nic:
        The node's :class:`~repro.mochi.mercury.NetworkInterface`.
    progress_mode:
        Busy spin or ``epoll`` (the paper's ``BusySpin`` parameter).
    dedicated_progress_thread:
        Whether a dedicated execution stream runs the progress loop (the
        paper's ``ProgressThread`` parameters).
    handler_pool:
        Optional default pool RPC handlers run in (servers register provider
        pools instead).
    name:
        Label used for debugging.
    cost_model:
        Progress cost constants.
    """

    def __init__(
        self,
        env: Environment,
        nic: NetworkInterface,
        progress_mode: ProgressMode = ProgressMode.EPOLL,
        dedicated_progress_thread: bool = False,
        handler_pool: Optional[Pool] = None,
        name: str = "",
        cost_model: Optional[ProgressCostModel] = None,
    ):
        self.env = env
        self.nic = nic
        self.progress_mode = ProgressMode(progress_mode)
        self.dedicated_progress_thread = bool(dedicated_progress_thread)
        self.handler_pool = handler_pool
        self.name = name
        self.cost_model = cost_model or ProgressCostModel()
        self.rpcs_issued = 0
        self.rpcs_handled = 0

    # --------------------------------------------------------------- contention
    def pinned_cores(self) -> float:
        """Cores permanently occupied by this engine's progress loop.

        A dedicated busy-spinning progress thread pins a full core; a
        dedicated ``epoll`` thread is mostly asleep (counted as a small
        fraction); a shared progress loop pins nothing on its own.
        """
        if not self.dedicated_progress_thread:
            return 0.0
        if self.progress_mode is ProgressMode.BUSY_SPIN:
            return 1.0
        return 0.05

    def progress_latency(self) -> float:
        """Per-network-event progress latency on this engine."""
        return self.cost_model.per_event_latency(
            self.progress_mode, self.dedicated_progress_thread
        )

    # --------------------------------------------------------------------- rpc
    def rpc(
        self,
        target: "MargoEngine",
        handler_pool: Optional[Pool],
        request_size: int,
        response_size: int,
        handler_time: float,
        use_rdma: bool = True,
        priority: int = 0,
        network: Optional[NetworkModel] = None,
    ):
        """DES process generator: one full RPC round trip.

        Sequence: client progress latency, request transfer through the client
        NIC, server progress latency, handler execution in ``handler_pool`` on
        the target, response transfer through the target NIC, client progress
        latency for completion.

        Returns the total round-trip time.
        """
        if handler_pool is None:
            handler_pool = target.handler_pool
        if handler_pool is None:
            raise ValueError("no handler pool available on the target engine")
        start = self.env.now
        self.rpcs_issued += 1

        # Client side: issue the request.
        yield self.env.timeout(self.progress_latency())
        yield from self.nic.transfer(request_size, use_rdma)

        # Server side: progress notices the request, handler runs in the pool.
        yield self.env.timeout(target.progress_latency())
        yield from handler_pool.execute(handler_time, priority=priority)
        target.rpcs_handled += 1

        # Response travels back through the server NIC.
        yield from target.nic.transfer(response_size, use_rdma)
        yield self.env.timeout(self.progress_latency())
        return self.env.now - start

    def call(
        self,
        target: "MargoEngine",
        handler_pool: Optional[Pool],
        request_size: int,
        response_size: int,
        handler,
        use_rdma: bool = True,
        priority: int = 0,
    ):
        """DES process generator: RPC whose handler is itself a DES generator.

        Like :meth:`rpc`, but the server-side work is the nested generator
        ``handler`` (e.g. a Yokan ``put_multi`` that must also acquire the
        database write lock), executed while holding one execution stream of
        ``handler_pool``.

        Returns ``(round_trip_time, handler_result)``.
        """
        if handler_pool is None:
            handler_pool = target.handler_pool
        if handler_pool is None:
            raise ValueError("no handler pool available on the target engine")
        start = self.env.now
        self.rpcs_issued += 1

        yield self.env.timeout(self.progress_latency())
        yield from self.nic.transfer(request_size, use_rdma)

        yield self.env.timeout(target.progress_latency())
        result = yield from handler_pool.run(handler, priority=priority)
        target.rpcs_handled += 1

        yield from target.nic.transfer(response_size, use_rdma)
        yield self.env.timeout(self.progress_latency())
        return self.env.now - start, result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<MargoEngine {self.name!r} mode={self.progress_mode.value} "
            f"dedicated={self.dedicated_progress_thread}>"
        )
