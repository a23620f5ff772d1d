"""The HEP workflow parameter space (Fig. 1) and the experimental setups.

Twenty parameters are tuned in the paper, spread over the three workflow
components plus one parameter common to all of them:

=====================  =============================  =========================
Component              Parameter (paper name)          Name used in this repo
=====================  =============================  =========================
Data loader            ProgressThread                  ``loader_progress_thread``
Data loader            WriteBatchSize                  ``loader_batch_size``
Data loader            PESperNode                      ``loader_pes_per_node``
Data loader            LoaderAsync                     ``loader_async``
Data loader            LoaderAsyncThreads              ``loader_async_threads``
HEPnOS                 ProgressThread                  ``hepnos_progress_thread``
HEPnOS                 NumRPCthreads                   ``hepnos_num_rpc_threads``
HEPnOS                 NumEventDBs                     ``hepnos_num_event_databases``
HEPnOS                 NumProductDBs                   ``hepnos_num_product_databases``
HEPnOS                 NumProviders                    ``hepnos_num_providers``
HEPnOS (*)             ThreadPoolType                  ``hepnos_pool_type``
HEPnOS (*)             PESperNode                      ``hepnos_pes_per_node``
PEP                    ProgressThread                  ``pep_progress_thread``
PEP                    NumThreads                      ``pep_num_threads``
PEP                    InputBatchSize                  ``pep_ibatch_size``
PEP                    OuputBatchSize                  ``pep_obatch_size``
PEP                    PESperNode                      ``pep_pes_per_node``
PEP (*)                UsePreloading                   ``pep_use_preloading``
PEP (*)                UseRDMA                         ``pep_use_rdma``
Common                 BusySpin                        ``busy_spin``
=====================  =============================  =========================

Parameters marked (*) belong to the *extended* search space only (the 20p
setups).  The five experimental setups follow the paper's nomenclature
``<nodes>n-<steps>s-<params>p``:

* ``4n-1s-11p`` — 4 nodes, data-loading step only, 11 parameters
  (data loader + HEPnOS base + BusySpin);
* ``4n-2s-16p`` — both steps, 16 parameters (adds the 5 base PEP parameters);
* ``4n-2s-20p`` — both steps, the full 20-parameter space;
* ``8n-2s-20p`` / ``16n-2s-20p`` — the same space at 8 and 16 nodes per
  workflow instance (weak scaling: 100 and 200 input files).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.space import (
    CategoricalParameter,
    Configuration,
    IntegerParameter,
    OrdinalParameter,
    Parameter,
    SearchSpace,
)

__all__ = [
    "ALL_PARAMETERS",
    "DEFAULT_CONFIGURATION",
    "SETUPS",
    "WorkflowSetup",
    "build_space",
    "get_setup",
    "complete_configuration",
]

#: Allowed processes-per-node values (Fig. 1).
PES_PER_NODE_VALUES = (1, 2, 4, 8, 16, 32)


def _make_parameters() -> Dict[str, Parameter]:
    """Construct the full 20-parameter dictionary (insertion order = Fig. 1)."""
    params: List[Parameter] = [
        # ----------------------------------------------------------- data loader
        CategoricalParameter.boolean("loader_progress_thread"),
        IntegerParameter("loader_batch_size", 1, 2048, log=True),
        OrdinalParameter("loader_pes_per_node", PES_PER_NODE_VALUES),
        CategoricalParameter.boolean("loader_async"),
        IntegerParameter("loader_async_threads", 1, 63, log=True),
        # ---------------------------------------------------------------- HEPnOS
        CategoricalParameter.boolean("hepnos_progress_thread"),
        IntegerParameter("hepnos_num_rpc_threads", 0, 63),
        IntegerParameter("hepnos_num_event_databases", 1, 16),
        IntegerParameter("hepnos_num_product_databases", 1, 16),
        IntegerParameter("hepnos_num_providers", 1, 32),
        CategoricalParameter("hepnos_pool_type", ("fifo", "fifo_wait", "prio_wait")),
        OrdinalParameter("hepnos_pes_per_node", PES_PER_NODE_VALUES),
        # ------------------------------------------------------------------- PEP
        CategoricalParameter.boolean("pep_progress_thread"),
        IntegerParameter("pep_num_threads", 1, 31),
        IntegerParameter("pep_ibatch_size", 8, 1024, log=True),
        IntegerParameter("pep_obatch_size", 8, 1024, log=True),
        OrdinalParameter("pep_pes_per_node", PES_PER_NODE_VALUES),
        CategoricalParameter.boolean("pep_use_preloading"),
        CategoricalParameter.boolean("pep_use_rdma"),
        # ---------------------------------------------------------------- common
        CategoricalParameter.boolean("busy_spin"),
    ]
    return {p.name: p for p in params}


#: All twenty tunable parameters, keyed by name.
ALL_PARAMETERS: Dict[str, Parameter] = _make_parameters()

#: Names of the data-loader parameters.
LOADER_PARAMETERS: Tuple[str, ...] = (
    "loader_progress_thread",
    "loader_batch_size",
    "loader_pes_per_node",
    "loader_async",
    "loader_async_threads",
)

#: Names of the base (non-extended) HEPnOS parameters.
HEPNOS_BASE_PARAMETERS: Tuple[str, ...] = (
    "hepnos_progress_thread",
    "hepnos_num_rpc_threads",
    "hepnos_num_event_databases",
    "hepnos_num_product_databases",
    "hepnos_num_providers",
)

#: HEPnOS parameters only present in the extended (20p) space.
HEPNOS_EXTENDED_PARAMETERS: Tuple[str, ...] = (
    "hepnos_pool_type",
    "hepnos_pes_per_node",
)

#: Names of the base (non-extended) PEP parameters.
PEP_BASE_PARAMETERS: Tuple[str, ...] = (
    "pep_progress_thread",
    "pep_num_threads",
    "pep_ibatch_size",
    "pep_obatch_size",
    "pep_pes_per_node",
)

#: PEP parameters only present in the extended (20p) space.
PEP_EXTENDED_PARAMETERS: Tuple[str, ...] = (
    "pep_use_preloading",
    "pep_use_rdma",
)

#: The common parameter (network polling strategy).
COMMON_PARAMETERS: Tuple[str, ...] = ("busy_spin",)


#: Values assumed for any parameter not present in a restricted search space.
DEFAULT_CONFIGURATION: Configuration = {
    "loader_progress_thread": False,
    "loader_batch_size": 512,
    "loader_pes_per_node": 8,
    "loader_async": False,
    "loader_async_threads": 1,
    "hepnos_progress_thread": True,
    "hepnos_num_rpc_threads": 4,
    "hepnos_num_event_databases": 4,
    "hepnos_num_product_databases": 4,
    "hepnos_num_providers": 4,
    "hepnos_pool_type": "fifo_wait",
    "hepnos_pes_per_node": 1,
    "pep_progress_thread": False,
    "pep_num_threads": 15,
    "pep_ibatch_size": 128,
    "pep_obatch_size": 128,
    "pep_pes_per_node": 8,
    "pep_use_preloading": True,
    "pep_use_rdma": True,
    "busy_spin": False,
}


@dataclass(frozen=True)
class WorkflowSetup:
    """One of the paper's experimental setups.

    Attributes
    ----------
    name:
        Setup nomenclature, e.g. ``"4n-2s-20p"``.
    num_nodes:
        Nodes per workflow instance (HEPnOS + application nodes).
    num_steps:
        1 = data loading only, 2 = data loading + event selection.
    parameter_names:
        Names of the tuned parameters (order follows Fig. 1).
    num_files:
        Number of synthetic HDF5 files loaded (weak scaling with nodes).
    """

    name: str
    num_nodes: int
    num_steps: int
    parameter_names: Tuple[str, ...]
    num_files: int

    @property
    def num_parameters(self) -> int:
        """Number of tuned parameters."""
        return len(self.parameter_names)

    def space(self) -> SearchSpace:
        """The :class:`~repro.core.space.SearchSpace` of this setup."""
        return build_space(self.parameter_names, name=self.name)


def _setup_table() -> Dict[str, WorkflowSetup]:
    p11 = LOADER_PARAMETERS + HEPNOS_BASE_PARAMETERS + COMMON_PARAMETERS
    p16 = p11 + PEP_BASE_PARAMETERS
    p20 = (
        LOADER_PARAMETERS
        + HEPNOS_BASE_PARAMETERS
        + HEPNOS_EXTENDED_PARAMETERS
        + PEP_BASE_PARAMETERS
        + PEP_EXTENDED_PARAMETERS
        + COMMON_PARAMETERS
    )
    return {
        "4n-1s-11p": WorkflowSetup("4n-1s-11p", 4, 1, p11, num_files=50),
        "4n-2s-16p": WorkflowSetup("4n-2s-16p", 4, 2, p16, num_files=50),
        "4n-2s-20p": WorkflowSetup("4n-2s-20p", 4, 2, p20, num_files=50),
        "8n-2s-20p": WorkflowSetup("8n-2s-20p", 8, 2, p20, num_files=100),
        "16n-2s-20p": WorkflowSetup("16n-2s-20p", 16, 2, p20, num_files=200),
    }


#: The five experimental setups of Section IV-A2, keyed by name.
SETUPS: Dict[str, WorkflowSetup] = _setup_table()

#: Transfer-learning chain used in the paper (source -> target).
TRANSFER_CHAIN: Tuple[Tuple[str, str], ...] = (
    ("4n-1s-11p", "4n-2s-16p"),
    ("4n-2s-16p", "4n-2s-20p"),
    ("4n-2s-20p", "8n-2s-20p"),
    ("8n-2s-20p", "16n-2s-20p"),
)


def get_setup(name: str) -> WorkflowSetup:
    """Look up a setup by its ``<nodes>n-<steps>s-<params>p`` name."""
    try:
        return SETUPS[name]
    except KeyError:
        raise KeyError(
            f"unknown setup {name!r}; available: {sorted(SETUPS)}"
        ) from None


def build_space(parameter_names, name: str = "") -> SearchSpace:
    """Build a :class:`SearchSpace` from a list of Fig. 1 parameter names."""
    unknown = [n for n in parameter_names if n not in ALL_PARAMETERS]
    if unknown:
        raise KeyError(f"unknown parameters: {unknown}; known: {sorted(ALL_PARAMETERS)}")
    return SearchSpace([ALL_PARAMETERS[n] for n in parameter_names], name=name)


def complete_configuration(config: Configuration) -> Configuration:
    """Fill missing parameters with their defaults.

    Restricted setups (11p, 16p) tune a subset of the parameters; the
    remaining ones take the values of :data:`DEFAULT_CONFIGURATION`, exactly
    like the fixed values the paper's restricted experiments used.
    """
    unknown = [n for n in config if n not in ALL_PARAMETERS]
    if unknown:
        raise KeyError(f"unknown parameters in configuration: {unknown}")
    full = dict(DEFAULT_CONFIGURATION)
    full.update(config)
    return full
