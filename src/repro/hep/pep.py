"""Simulation of the parallel event processing (PEP) benchmark (step 2).

The PEP application reads back the events stored by the data loader, loads
the products attached to them and runs a (simulated) selection computation.
Following §II-B2 of the paper:

* one process per event database performs the *listing* phase, filling a
  local queue of event descriptors;
* all processes then pull work either from their own local queue or by
  requesting batches of ``pep_obatch_size`` events from other processes;
* each event is processed by loading its products (optionally prefetched in
  batches of ``pep_ibatch_size`` via ``pep_use_preloading``) and running the
  per-event computation on ``pep_num_threads`` threads.

The tunable behaviour reproduced: ``pep_pes_per_node``, ``pep_num_threads``,
``pep_ibatch_size``, ``pep_obatch_size``, ``pep_use_preloading``,
``pep_use_rdma``, ``pep_progress_thread`` and the common ``busy_spin``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim import Environment, Store
from repro.mochi.margo import MargoEngine, ProgressMode
from repro.hepnos.client import HEPnOSClient, StoredBlock
from repro.hepnos.service import HEPnOSService
from repro.hep.costs import WorkflowCostModel, DEFAULT_COSTS
from repro.platform import Node

__all__ = ["PEPConfig", "PEPStats", "PEPRun"]


@dataclass(frozen=True)
class PEPConfig:
    """PEP tuning parameters (a typed view of the Fig. 1 names)."""

    pes_per_node: int = 8
    num_threads: int = 15
    input_batch_size: int = 128
    output_batch_size: int = 128
    use_preloading: bool = True
    use_rdma: bool = True
    progress_thread: bool = False
    busy_spin: bool = False

    @classmethod
    def from_configuration(cls, config: Dict) -> "PEPConfig":
        """Extract the PEP parameters from a full workflow configuration."""
        return cls(
            pes_per_node=int(config["pep_pes_per_node"]),
            num_threads=int(config["pep_num_threads"]),
            input_batch_size=int(config["pep_ibatch_size"]),
            output_batch_size=int(config["pep_obatch_size"]),
            use_preloading=bool(config["pep_use_preloading"]),
            use_rdma=bool(config["pep_use_rdma"]),
            progress_thread=bool(config["pep_progress_thread"]),
            busy_spin=bool(config["busy_spin"]),
        )

    def __post_init__(self) -> None:
        if self.pes_per_node < 1:
            raise ValueError("pes_per_node must be >= 1")
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if self.input_batch_size < 1 or self.output_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")


@dataclass
class PEPStats:
    """Aggregate outcome of the event-processing step."""

    events_processed: int = 0
    bytes_loaded: int = 0
    blocks_processed: int = 0
    remote_blocks: int = 0
    exchange_rpcs: int = 0
    elapsed: float = 0.0
    listing_time: float = 0.0


class PEPRun:
    """One execution of the parallel event-processing step.

    Parameters
    ----------
    env:
        Simulation environment.
    app_nodes:
        Application nodes the PEP processes run on.
    service:
        The HEPnOS service holding the loaded events.
    config:
        PEP tuning parameters.
    costs:
        Workflow cost constants.
    """

    def __init__(
        self,
        env: Environment,
        app_nodes: List[Node],
        service: HEPnOSService,
        config: PEPConfig,
        costs: WorkflowCostModel = DEFAULT_COSTS,
    ):
        if not app_nodes:
            raise ValueError("PEP needs at least one application node")
        self.env = env
        self.app_nodes = list(app_nodes)
        self.service = service
        self.config = config
        self.costs = costs
        self.stats = PEPStats()

        self._num_processes = config.pes_per_node * len(self.app_nodes)
        self._work = Store(env, name="pep-work")
        self._register_core_demand()

    # ------------------------------------------------------------- deployment
    def _register_core_demand(self) -> None:
        for node in self.app_nodes:
            procs = self.config.pes_per_node
            node.register_workers(procs * (1.0 + self.config.num_threads))
            if self.config.progress_thread:
                node.register_pinned(procs * (1.0 if self.config.busy_spin else 0.05))
            elif self.config.busy_spin:
                node.register_pinned(procs * 0.5)

    def _make_engine(self, node: Node, rank: int) -> MargoEngine:
        return MargoEngine(
            self.env,
            nic=node.nic,
            progress_mode=(
                ProgressMode.BUSY_SPIN if self.config.busy_spin else ProgressMode.EPOLL
            ),
            dedicated_progress_thread=self.config.progress_thread,
            name=f"pep-{rank}",
        )

    # -------------------------------------------------------------- simulation
    def run(self):
        """DES process generator: execute the whole event-processing step.

        Returns the populated :class:`PEPStats`.
        """
        start = self.env.now
        num_event_dbs = self.service.num_event_databases

        # Assign processes to nodes round-robin; event databases to processes
        # round-robin (a process may list zero or several databases).
        process_nodes: List[Node] = [
            self.app_nodes[i % len(self.app_nodes)] for i in range(self._num_processes)
        ]
        db_owner: Dict[int, int] = {
            db_idx: db_idx % self._num_processes for db_idx in range(num_event_dbs)
        }

        listers = []
        for rank in range(self._num_processes):
            dbs = [d for d, owner in db_owner.items() if owner == rank]
            listers.append(
                self.env.process(self._lister(process_nodes[rank], rank, dbs))
            )

        consumers = [
            self.env.process(self._consumer(process_nodes[rank], rank))
            for rank in range(self._num_processes)
        ]

        # When every lister has finished, close the work queue with sentinels.
        yield self.env.all_of(listers)
        self.stats.listing_time = self.env.now - start
        for _ in range(self._num_processes):
            yield self._work.put((None, None))

        yield self.env.all_of(consumers)
        self.stats.elapsed = self.env.now - start
        return self.stats

    # ----------------------------------------------------------------- phases
    def _lister(self, node: Node, rank: int, db_indices: List[int]):
        """Listing phase of one process: enumerate blocks of its databases."""
        if not db_indices:
            return
        engine = self._make_engine(node, rank)
        client = HEPnOSClient(engine, self.service, use_rdma=self.config.use_rdma)
        for db_idx in db_indices:
            blocks = yield from client.list_event_blocks(db_idx)
            for block in blocks:
                yield self._work.put((rank, block))

    def _consumer(self, node: Node, rank: int):
        """Processing phase of one process: pull blocks and process them."""
        engine = self._make_engine(node, rank)
        client = HEPnOSClient(engine, self.service, use_rdma=self.config.use_rdma)
        slowdown = node.slowdown()
        effective_threads = self._effective_threads(node)

        while True:
            owner, block = yield self._work.get()
            if block is None:
                break
            if owner != rank:
                # The block's event descriptors are pulled from the owning
                # process in batches of ``output_batch_size``.
                yield from self._exchange(engine, node, block)
                self.stats.remote_blocks += 1
            yield from self._process_block(client, block, slowdown, effective_threads)

    def _exchange(self, engine: MargoEngine, node: Node, block: StoredBlock):
        """Inter-process transfer of a block's event descriptors."""
        n_rpcs = max(1, -(-block.num_events // self.config.output_batch_size))
        descriptor_bytes = block.num_events * self.costs.event_descriptor_bytes
        network = node.platform.network
        per_rpc = (
            self.costs.pep_exchange_rpc_overhead
            + 2 * engine.progress_latency()
            + 2 * network.latency
        )
        transfer = descriptor_bytes / network.bandwidth
        self.stats.exchange_rpcs += n_rpcs
        yield self.env.timeout(n_rpcs * per_rpc + transfer)

    def _process_block(
        self,
        client: HEPnOSClient,
        block: StoredBlock,
        slowdown: float,
        effective_threads: float,
    ):
        """Load products and run the per-event computation for one block."""
        # Client-side cost of issuing the load requests.
        if self.config.use_preloading:
            n_requests = max(1, -(-block.num_events // self.config.input_batch_size))
        else:
            n_requests = block.num_events
        yield self.env.timeout(
            n_requests * self.costs.rpc_client_overhead * slowdown / effective_threads
        )

        load = yield from client.load_products(
            block,
            input_batch_size=self.config.input_batch_size,
            preloading=self.config.use_preloading,
        )

        compute = (
            block.num_events * self.costs.pep_compute_per_event
            + load.bytes_loaded * self.costs.pep_deserialize_per_byte
        ) * slowdown / effective_threads
        yield self.env.timeout(compute)

        self.stats.events_processed += block.num_events
        self.stats.bytes_loaded += load.bytes_loaded
        self.stats.blocks_processed += 1

    # ---------------------------------------------------------------- helpers
    def _effective_threads(self, node: Node) -> float:
        """Per-process parallel speedup of the processing threads.

        Threads cannot give more speedup than the share of physical cores
        available to the process on its node.
        """
        cores = node.platform.cores_per_node
        procs_on_node = self.config.pes_per_node
        fair_share = max(1.0, cores * node.available_core_fraction() / procs_on_node)
        return float(min(self.config.num_threads, fair_share))
