"""Experiment harness: adapters and protocol runners for Section 6.

Wraps every dynamic k-core algorithm in the repository behind one adapter
interface so the Ins/Del/Mix protocols (Section 6, "Ins/Del/Mix
Experiments") can drive them interchangeably and report comparable
numbers: simulated cost (work/depth from the metering substrate),
wall-clock time, error statistics against exact peeling, and space.

Algorithms
----------
=========== ============================================= ===========
key         implementation                                 kind
=========== ============================================= ===========
plds        :class:`repro.core.plds.PLDS`                  parallel approx
pldsopt     PLDS with ``group_shrink=50`` (Section 6.1)    parallel approx
lds         :class:`repro.core.lds.LDS`                    sequential approx
sun         :class:`repro.baselines.sun.SunApproxDynamic`  sequential approx
hua         :class:`repro.baselines.hua.HuaExactBatchDynamic` parallel exact
zhang       :class:`repro.baselines.zhang.ZhangExactDynamic`  sequential exact
exactkcore  static rerun of ParallelExactKCore per batch   parallel exact
approxkcore static rerun of Algorithm 6 per batch          parallel approx
plds-sharded :class:`repro.shard.Coordinator` scatter-gather parallel approx
=========== ============================================= ===========

The two static keys model the paper's Fig.-11 static comparison: the
"dynamic" update simply reruns the static algorithm from scratch on the
accumulated graph.

Dispatch lives in :mod:`repro.registry` — the table above documents the
capability metadata registered there (and is pinned against it by
``tests/test_registry.py``).  This module re-exports the adapter types
and :func:`~repro.registry.make_adapter` for backward compatibility and
adds the protocol runner :func:`run_protocol`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

from ..graphs.streams import (
    deletion_batches,
    insertion_batches,
    mixed_batch,
)
from ..obs import tracing as _tracing
from ..parallel.engine import Cost
from ..registry import (
    DynamicKCoreAdapter,
    StaticRerunAdapter,
    algorithm_keys,
    make_adapter,
)
from ..static_kcore.exact import exact_coreness
from .metrics import ErrorStats, error_stats

__all__ = [
    "DynamicKCoreAdapter",
    "StaticRerunAdapter",
    "make_adapter",
    "ALGORITHM_KEYS",
    "ALL_KEYS",
    "SEQUENTIAL_KEYS",
    "BatchMeasurement",
    "ExperimentResult",
    "run_protocol",
]

Protocol = Literal["ins", "del", "mix"]

#: the genuinely dynamic algorithms (from the registry metadata).
ALGORITHM_KEYS = algorithm_keys(dynamic=True)

#: including the static-rerun pseudo-algorithms (Fig. 11 comparisons).
ALL_KEYS = algorithm_keys()

#: algorithms whose simulated running time should be read at p=1
SEQUENTIAL_KEYS = frozenset(algorithm_keys(parallel=False))


@dataclass
class BatchMeasurement:
    """Cost of processing one batch."""

    batch_size: int
    work: int
    depth: int
    wall_seconds: float


@dataclass
class ExperimentResult:
    """Outcome of one (algorithm, dataset, protocol) experiment."""

    algorithm: str
    protocol: str
    batch_size: int
    batches: list[BatchMeasurement] = field(default_factory=list)
    errors: ErrorStats | None = None
    space_bytes: int = 0

    @property
    def avg_work(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.work for b in self.batches) / len(self.batches)

    @property
    def avg_depth(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.depth for b in self.batches) / len(self.batches)

    @property
    def avg_wall(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.wall_seconds for b in self.batches) / len(self.batches)

    @property
    def total_cost(self) -> Cost:
        return Cost(
            sum(b.work for b in self.batches),
            sum(b.depth for b in self.batches),
        )


def run_protocol(
    adapter_factory: Callable[[], DynamicKCoreAdapter],
    edges: Sequence[tuple[int, int]],
    protocol: Protocol,
    batch_size: int,
    seed: int = 0,
    measure_error_against: Sequence[tuple[int, int]] | None = None,
    max_batches: int | None = None,
) -> ExperimentResult:
    """Run one Ins/Del/Mix experiment (Section 6 protocol definitions).

    - ``ins``: start empty, insert all edges in batches;
    - ``del``: start full, delete all edges in batches;
    - ``mix``: start at graph-minus-I, apply one mixed batch.

    Error statistics are computed at the end against exact peeling of the
    final graph (or of ``measure_error_against`` if given).
    """
    adapter = adapter_factory()
    final_edges: list[tuple[int, int]]

    if protocol == "ins":
        batches = insertion_batches(edges, batch_size, seed=seed)
        final_edges = list(edges)
    elif protocol == "del":
        adapter.initialize(edges)
        batches = deletion_batches(edges, batch_size, seed=seed)
        final_edges = []
    elif protocol == "mix":
        initial, batch = mixed_batch(edges, batch_size, seed=seed)
        adapter.initialize(initial)
        batches = [batch]
        removed = set(batch.deletions)
        final_edges = [e for e in initial if e not in removed] + list(
            batch.insertions
        )
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    if max_batches is not None:
        consumed = batches[:max_batches]
        if protocol == "ins":
            final_edges = [e for b in consumed for e in b.insertions]
        elif protocol == "del":
            deleted = {e for b in consumed for e in b.deletions}
            final_edges = [e for e in edges if e not in deleted]
        batches = consumed

    result = ExperimentResult(
        algorithm=adapter.key, protocol=protocol, batch_size=batch_size
    )
    # For the del protocol the final graph is empty, so errors are
    # measured at the halfway point while the graph is still populated
    # (the paper averages errors over the deletion batches).
    halfway = max(1, len(batches) // 2)
    halfway_estimates: dict[int, float] | None = None
    tracer = _tracing.ACTIVE
    for i, batch in enumerate(batches):
        before = adapter.cost
        t0 = time.perf_counter()
        if tracer is None:
            adapter.update(batch)
        else:
            with tracer.span(
                "harness.batch", adapter.tracker, index=i, size=len(batch)
            ):
                adapter.update(batch)
        wall = time.perf_counter() - t0
        delta_cost = Cost(
            adapter.cost.work - before.work, adapter.cost.depth - before.depth
        )
        result.batches.append(
            BatchMeasurement(
                batch_size=len(batch),
                work=delta_cost.work,
                depth=delta_cost.depth,
                wall_seconds=wall,
            )
        )
        if protocol == "del" and i + 1 == halfway:
            halfway_estimates = adapter.estimates()

    if measure_error_against is not None:
        result.errors = error_stats(
            adapter.estimates(), exact_coreness(list(measure_error_against))
        )
    elif protocol == "del":
        if halfway_estimates is not None:
            deleted = {e for b in batches[:halfway] for e in b.deletions}
            remaining = [e for e in edges if e not in deleted]
            result.errors = error_stats(
                halfway_estimates, exact_coreness(remaining)
            )
    else:
        result.errors = error_stats(adapter.estimates(), exact_coreness(final_edges))
    result.space_bytes = adapter.space_bytes()
    return result
