"""repro - Parallel batch-dynamic k-core decomposition and friends.

A from-scratch Python reproduction of *"Parallel Batch-Dynamic Algorithms
for k-Core Decomposition and Related Graph Problems"* (Liu, Shi, Yu,
Dhulipala, Shun - SPAA 2022).

Subpackages
-----------
``repro.parallel``
    Work-depth model simulation: the work/depth tracker the algorithms
    charge, and a Brent-bound scheduler for simulated multicore running
    times.
``repro.graphs``
    Dynamic graphs, synthetic dataset analogs, Ins/Del/Mix update streams.
``repro.core``
    The paper's contribution: the PLDS (parallel level data structure)
    with ``(2+eps)``-approximate coreness and an O(alpha) out-degree
    orientation; the sequential LDS baseline.
``repro.static_kcore``
    Static exact peeling and the Algorithm-6 ``(2+eps)`` approximation.
``repro.baselines``
    Behavioral reimplementations of the Sun, Hua, and Zhang baselines.
``repro.framework``
    The Section-8 framework: batch-dynamic maximal matching, k-clique
    counting, and vertex colorings on top of the orientation.
``repro.registry``
    The algorithm/application registry: every dispatchable key with its
    adapter factory and capability metadata.
``repro.service``
    The batch-serving layer: :class:`~repro.service.CoreService`
    sessions applying update batches and answering coreness queries.
``repro.bench``
    Experiment harness reproducing the paper's evaluation protocols
    (adapters, protocol runners, error metrics, the chaos harness).
    Wall-clock benchmarking lives outside the package, in ``perf/``.

Quickstart
----------
>>> from repro import PLDS, Batch
>>> plds = PLDS(n_hint=1000)
>>> _ = plds.update(Batch(insertions=[(0, 1), (1, 2), (0, 2)]))
>>> plds.coreness_estimate(0)
1.0
"""

from .core.lds import LDS
from .core.plds import PLDS, UpdateResult
from .faults import FaultPlan, FaultPoint, InjectedFault
from .graphs.dynamic_graph import DynamicGraph
from .graphs.streams import Batch, EdgeUpdate, UpdateJournal
from .parallel.engine import Cost, WorkDepthTracker
from .registry import algorithm_keys, make_adapter
from .service import (
    AuditPolicy,
    BatchTelemetry,
    CoreService,
    RetryPolicy,
    ServiceSnapshot,
)
from .static_kcore.approx import approx_coreness_static
from .static_kcore.exact import exact_coreness

__version__ = "1.0.0"

__all__ = [
    "PLDS",
    "LDS",
    "UpdateResult",
    "DynamicGraph",
    "Batch",
    "EdgeUpdate",
    "Cost",
    "WorkDepthTracker",
    "CoreService",
    "BatchTelemetry",
    "ServiceSnapshot",
    "RetryPolicy",
    "AuditPolicy",
    "UpdateJournal",
    "FaultPlan",
    "FaultPoint",
    "InjectedFault",
    "algorithm_keys",
    "make_adapter",
    "approx_coreness_static",
    "exact_coreness",
    "__version__",
]
