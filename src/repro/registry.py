"""Unified algorithm registry: one key → adapter factory + capabilities.

Every dynamic k-core algorithm in the repository registers here exactly
once, as an :class:`AlgorithmSpec` pairing an adapter factory with
capability metadata (exact vs approximate, parallel vs sequential,
deletion support, metering, snapshot support).  The experiment harness
(:mod:`repro.bench.harness`), the CLI (:mod:`repro.cli`), and the
serving layer (:mod:`repro.service`) all resolve algorithms through this
module — there is no other key→factory table in the package.

The Section-8 framework applications (maximal matching, k-clique
counting, vertex coloring) register through the same mechanism as
:class:`ApplicationSpec` entries, so :class:`repro.service.CoreService`
can host them next to the plain k-core engines.

Extension: third-party algorithms call :func:`register_algorithm` (and
applications :func:`register_application`) at import time; every
consumer — ``repro kcore``/``compare``/``service``, ``CoreService`` — then
accepts the new key with no further wiring.

Example
-------
>>> from repro.registry import algorithm_keys, make_adapter, algorithm_spec
>>> algorithm_keys(dynamic=True)
('plds', 'pldsopt', 'lds', 'sun', 'hua', 'zhang', 'plds-sharded')
>>> make_adapter("plds", n_hint=100).key
'plds'
>>> sorted(k for k in algorithm_keys() if algorithm_spec(k).async_reads)
['lds', 'plds', 'plds-sharded', 'pldsopt']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .baselines.hua import HuaExactBatchDynamic
from .baselines.sun import SunApproxDynamic
from .baselines.zhang import ZhangExactDynamic
from .core.lds import LDS
from .core.plds import PLDS
from .graphs.streams import Batch
from .obs import tracing as _tracing
from .parallel.engine import Cost, WorkDepthTracker
from .shard import Coordinator

__all__ = [
    "AlgorithmSpec",
    "ApplicationSpec",
    "DynamicKCoreAdapter",
    "StaticRerunAdapter",
    "algorithm_keys",
    "algorithm_spec",
    "application_keys",
    "application_spec",
    "WorkloadSpec",
    "make_adapter",
    "make_application",
    "make_workload",
    "rebuild_adapter",
    "register_algorithm",
    "register_application",
    "register_workload",
    "workload_keys",
    "workload_spec",
]


# ----------------------------------------------------------------------
# Adapters
# ----------------------------------------------------------------------


class StaticRerunAdapter:
    """A 'dynamic' algorithm that reruns a static one after every batch.

    Mirrors the paper's Fig.-11 protocol for ExactKCore/ApproxKCore: the
    static algorithm is rerun from scratch on the full accumulated graph
    after each batch, so per-batch cost is the full static cost.
    """

    def __init__(self, kind: str, tracker: WorkDepthTracker) -> None:
        from .graphs.dynamic_graph import DynamicGraph

        self.kind = kind
        self.tracker = tracker
        self._graph = DynamicGraph()
        self._estimates: dict[int, float] = {}

    def initialize(self, edges: Sequence[tuple[int, int]]) -> None:
        for u, v in edges:
            self._graph.insert_edge(u, v)
        self._recompute()

    def update(self, batch: Batch) -> None:
        for u, v in batch.insertions:
            self._graph.insert_edge(u, v)
        for u, v in batch.deletions:
            self._graph.delete_edge(u, v)
        self._recompute()

    def _recompute(self) -> None:
        from .static_kcore.approx import approx_coreness_static
        from .static_kcore.exact import ParallelExactKCore

        edges = list(self._graph.edges())
        if self.kind == "exactkcore":
            result = ParallelExactKCore(self.tracker).run(edges)
            self._estimates = {v: float(k) for v, k in result.coreness.items()}
        else:
            result = approx_coreness_static(edges, tracker=self.tracker)
            self._estimates = dict(result.estimates)

    def coreness_estimates(self) -> dict[int, float]:
        return dict(self._estimates)

    def space_bytes(self) -> int:
        return 16 * self._graph.num_edges + 8 * self._graph.num_vertices


class DynamicKCoreAdapter:
    """Uniform facade over the dynamic k-core implementations."""

    def __init__(self, key: str, impl: Any, is_exact: bool) -> None:
        self.key = key
        self.impl = impl
        self.is_exact = is_exact

    # -- lifecycle -------------------------------------------------------

    def initialize(self, edges: Sequence[tuple[int, int]]) -> None:
        if isinstance(self.impl, (PLDS, LDS)):
            if edges:
                self.impl.update(Batch(insertions=list(edges)))
        else:
            self.impl.initialize(edges)

    def update(self, batch: Batch) -> None:
        tracer = _tracing.ACTIVE
        if (
            tracer is None
            or isinstance(self.impl, PLDS)
            or getattr(self.impl, "SELF_TRACING", False)
        ):
            # The PLDS family and self-tracing engines (the sharded
            # coordinator) trace their own (finer-grained) update spans.
            self.impl.update(batch)
            return
        with tracer.span(
            "engine.update",
            self.tracker,
            key=self.key,
            insertions=len(batch.insertions),
            deletions=len(batch.deletions),
        ):
            self.impl.update(batch)

    # -- results ------------------------------------------------------------

    def estimates(self) -> dict[int, float]:
        if isinstance(
            self.impl, (PLDS, LDS, SunApproxDynamic, StaticRerunAdapter, Coordinator)
        ):
            return self.impl.coreness_estimates()
        return {v: float(k) for v, k in self.impl.corenesses().items()}

    @property
    def tracker(self) -> WorkDepthTracker:
        """The engine's tracker (every registered impl carries one)."""
        return self.impl.tracker

    @property
    def cost(self) -> Cost:
        return self.impl.tracker.cost

    def space_bytes(self) -> int:
        return self.impl.space_bytes()


# ----------------------------------------------------------------------
# Algorithm registry
# ----------------------------------------------------------------------

#: An adapter factory: ``(n_hint, params) -> adapter`` where ``params``
#: is the normalized keyword mapping built by :func:`make_adapter`.
AdapterFactory = Callable[[int, Mapping[str, Any]], DynamicKCoreAdapter]


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm: factory plus capability metadata.

    Attributes
    ----------
    key:
        Registry key (what ``--algorithm`` accepts).
    summary:
        One-line human description.
    exact:
        ``True`` for exact coreness maintenance, ``False`` for the
        ``(2+ε)``-approximate structures.
    parallel:
        ``True`` when the metered depth is a genuine parallel critical
        path; sequential algorithms read simulated time at ``p = 1``.
    dynamic:
        ``False`` for the static-rerun pseudo-algorithms (Fig. 11),
        which recompute from scratch every batch.
    supports_deletions:
        Whether the Del/Mix protocols are meaningful for this key.
    metered:
        Whether the implementation charges a
        :class:`~repro.parallel.engine.WorkDepthTracker` (all built-ins
        do; external engines may not).
    snapshot:
        Whether the engine supports exact structural snapshot/restore
        (``to_snapshot``/``from_snapshot``); others are restored by
        replaying the edge set.
    sharded:
        Whether the engine is a partitioned multi-shard structure (the
        scatter-gather :class:`~repro.shard.Coordinator`, which owns
        its shard kernels and ghost directory directly).  The shard
        count itself is a construction parameter (``make_adapter``'s
        ``shards``); inspect ``adapter.impl.num_shards`` (or
        ``adapter.impl.kernels``) at runtime.
    async_reads:
        Whether the engine exposes the path-copied epoch surface
        (:class:`~repro.core.query.QueryView` — ``publish_epoch`` /
        ``read_view`` / ``last_moved``), letting
        :class:`~repro.service.CoreService` publish incremental read
        epochs at commit.  Engines without it still serve wait-free
        reads through the service, via a full estimate sweep per
        published epoch.
    """

    key: str
    summary: str
    factory: AdapterFactory
    exact: bool
    parallel: bool
    dynamic: bool = True
    supports_deletions: bool = True
    metered: bool = True
    snapshot: bool = False
    sharded: bool = False
    async_reads: bool = False


_ALGORITHMS: dict[str, AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add ``spec`` to the registry; duplicate keys are rejected."""
    if spec.key in _ALGORITHMS:
        raise ValueError(f"algorithm key {spec.key!r} already registered")
    _ALGORITHMS[spec.key] = spec
    return spec


def algorithm_spec(key: str) -> AlgorithmSpec:
    """Look up one algorithm, or raise ``ValueError`` naming valid keys."""
    try:
        return _ALGORITHMS[key]
    except KeyError:
        raise ValueError(
            f"unknown algorithm key {key!r}; choose from {algorithm_keys()}"
        ) from None


def algorithm_keys(
    *,
    dynamic: bool | None = None,
    parallel: bool | None = None,
    exact: bool | None = None,
) -> tuple[str, ...]:
    """Registered keys in registration order, optionally filtered."""
    return tuple(
        spec.key
        for spec in _ALGORITHMS.values()
        if (dynamic is None or spec.dynamic == dynamic)
        and (parallel is None or spec.parallel == parallel)
        and (exact is None or spec.exact == exact)
    )


def make_adapter(
    key: str,
    n_hint: int,
    delta: float = 0.4,
    lam: float = 3.0,
    sun_eps: float = 2.0,
    sun_lam: float = 2.0,
    sun_alpha: float = 2.0,
    upper_coeff: float | None = None,
    group_shrink_opt: int = 50,
    shards: int = 4,
    partition: str = "hash",
) -> DynamicKCoreAdapter:
    """Build the adapter for one algorithm key with paper-default params.

    ``shards``/``partition`` only affect sharded keys (``plds-sharded``);
    the single-structure engines ignore them.
    """
    params: dict[str, Any] = {
        "delta": delta,
        "lam": lam,
        "sun_eps": sun_eps,
        "sun_lam": sun_lam,
        "sun_alpha": sun_alpha,
        "upper_coeff": upper_coeff,
        "group_shrink_opt": group_shrink_opt,
        "shards": shards,
        "partition": partition,
    }
    return algorithm_spec(key).factory(n_hint, params)


def rebuild_adapter(
    key: str,
    n_hint: int,
    edges: Sequence[tuple[int, int]],
    **kwargs: Any,
) -> DynamicKCoreAdapter:
    """Rebuild-from-mirror: a fresh engine initialized with ``edges``.

    The recovery seam of the serving layer's degradation ladder: when an
    engine is quarantined (failed audit, unrecoverable fault), the
    service rebuilds a replacement of any registered ``key`` directly
    from its graph mirror.  Works for every registry key — including
    ``"exactkcore"``, the exact static recompute used as last resort.
    """
    adapter = make_adapter(key, n_hint, **kwargs)
    adapter.initialize(list(edges))
    return adapter


# -- built-in algorithm entries (the one table) ------------------------


def _plds_factory(key: str, group_shrink_from: str | None) -> AdapterFactory:
    def build(n_hint: int, p: Mapping[str, Any]) -> DynamicKCoreAdapter:
        shrink = 1 if group_shrink_from is None else int(p[group_shrink_from])
        return DynamicKCoreAdapter(
            key,
            PLDS(
                n_hint,
                delta=p["delta"],
                lam=p["lam"],
                group_shrink=shrink,
                upper_coeff=p["upper_coeff"],
            ),
            False,
        )

    return build


def _lds_factory(n_hint: int, p: Mapping[str, Any]) -> DynamicKCoreAdapter:
    return DynamicKCoreAdapter(
        "lds",
        LDS(n_hint, delta=p["delta"], lam=p["lam"], upper_coeff=p["upper_coeff"]),
        False,
    )


def _sun_factory(n_hint: int, p: Mapping[str, Any]) -> DynamicKCoreAdapter:
    return DynamicKCoreAdapter(
        "sun",
        SunApproxDynamic(
            n_hint, eps=p["sun_eps"], lam=p["sun_lam"], alpha=p["sun_alpha"]
        ),
        False,
    )


def _sharded_factory(n_hint: int, p: Mapping[str, Any]) -> DynamicKCoreAdapter:
    return DynamicKCoreAdapter(
        "plds-sharded",
        Coordinator(
            n_hint,
            delta=p["delta"],
            lam=p["lam"],
            upper_coeff=p["upper_coeff"],
            shards=int(p["shards"]),
            partition=p["partition"],
        ),
        False,
    )


def _static_factory(kind: str) -> AdapterFactory:
    def build(n_hint: int, p: Mapping[str, Any]) -> DynamicKCoreAdapter:
        return DynamicKCoreAdapter(
            kind, StaticRerunAdapter(kind, WorkDepthTracker()), kind == "exactkcore"
        )

    return build


register_algorithm(AlgorithmSpec(
    key="plds",
    summary="PLDS, the paper's parallel level data structure (Section 5)",
    factory=_plds_factory("plds", None),
    exact=False, parallel=True, snapshot=True, async_reads=True,
))
register_algorithm(AlgorithmSpec(
    key="pldsopt",
    summary="PLDS with group_shrink=50, the practical variant (Section 6.1)",
    factory=_plds_factory("pldsopt", "group_shrink_opt"),
    exact=False, parallel=True, snapshot=True, async_reads=True,
))
register_algorithm(AlgorithmSpec(
    key="lds",
    summary="sequential level data structure baseline (Section 5.2)",
    factory=_lds_factory,
    exact=False, parallel=False, snapshot=True, async_reads=True,
))
register_algorithm(AlgorithmSpec(
    key="sun",
    summary="Sun et al. sequential approximate dynamic baseline",
    factory=_sun_factory,
    exact=False, parallel=False,
))
register_algorithm(AlgorithmSpec(
    key="hua",
    summary="Hua et al. parallel exact batch-dynamic baseline",
    factory=lambda n, p: DynamicKCoreAdapter("hua", HuaExactBatchDynamic(), True),
    exact=True, parallel=True,
))
register_algorithm(AlgorithmSpec(
    key="zhang",
    summary="Zhang et al. sequential exact dynamic baseline",
    factory=lambda n, p: DynamicKCoreAdapter("zhang", ZhangExactDynamic(), True),
    exact=True, parallel=False,
))
register_algorithm(AlgorithmSpec(
    key="exactkcore",
    summary="static ParallelExactKCore rerun from scratch per batch (Fig. 11)",
    factory=_static_factory("exactkcore"),
    exact=True, parallel=True, dynamic=False,
))
register_algorithm(AlgorithmSpec(
    key="approxkcore",
    summary="static Algorithm-6 approximation rerun per batch (Fig. 11)",
    factory=_static_factory("approxkcore"),
    exact=False, parallel=True, dynamic=False,
))
register_algorithm(AlgorithmSpec(
    key="plds-sharded",
    summary="partitioned PLDS behind the scatter-gather shard coordinator",
    factory=_sharded_factory,
    exact=False, parallel=True, snapshot=True, sharded=True,
    async_reads=True,
))


# ----------------------------------------------------------------------
# Application registry (Section-8 framework)
# ----------------------------------------------------------------------

#: An application factory: ``(n_hint, **kwargs) -> (driver, app)``.
ApplicationFactory = Callable[..., tuple[Any, Any]]


@dataclass(frozen=True)
class ApplicationSpec:
    """One registered framework application (Algorithm 7 plug-in)."""

    key: str
    summary: str
    factory: ApplicationFactory


_APPLICATIONS: dict[str, ApplicationSpec] = {}


def register_application(spec: ApplicationSpec) -> ApplicationSpec:
    """Add ``spec`` to the application registry; duplicates rejected."""
    if spec.key in _APPLICATIONS:
        raise ValueError(f"application key {spec.key!r} already registered")
    _APPLICATIONS[spec.key] = spec
    return spec


def application_spec(key: str) -> ApplicationSpec:
    """Look up one application, or raise ``ValueError`` naming valid keys."""
    try:
        return _APPLICATIONS[key]
    except KeyError:
        raise ValueError(
            f"unknown application key {key!r}; choose from {application_keys()}"
        ) from None


def application_keys() -> tuple[str, ...]:
    """Registered application keys in registration order."""
    return tuple(_APPLICATIONS)


def make_application(key: str, n_hint: int, **kwargs: Any) -> tuple[Any, Any]:
    """Build ``(FrameworkDriver, app)`` for one registered application."""
    return application_spec(key).factory(n_hint, **kwargs)


# The factories import :mod:`repro.framework` lazily so that importing
# the registry (e.g. from the CLI) does not pay for the framework layer
# until an application is actually constructed.


def _app_factory(creator_name: str) -> ApplicationFactory:
    def build(n_hint: int, **kwargs: Any) -> tuple[Any, Any]:
        from . import framework

        creator = getattr(framework, creator_name)
        return creator(n_hint, **kwargs)

    return build


register_application(ApplicationSpec(
    key="matching",
    summary="batch-dynamic maximal matching (Theorem 3.4)",
    factory=_app_factory("create_matching_driver"),
))
register_application(ApplicationSpec(
    key="cliques",
    summary="batch-dynamic k-clique counting (Theorem 3.6)",
    factory=_app_factory("create_clique_driver"),
))
register_application(ApplicationSpec(
    key="clique-tables",
    summary="table-hierarchy k-clique counter (Algorithms 12-13)",
    factory=_app_factory("create_clique_tables_driver"),
))
register_application(ApplicationSpec(
    key="coloring-explicit",
    summary="explicit O(α log n) vertex coloring (Theorem 3.7)",
    factory=_app_factory("create_explicit_coloring_driver"),
))
register_application(ApplicationSpec(
    key="coloring-implicit",
    summary="implicit vertex coloring (Theorem 3.5 semantics)",
    factory=_app_factory("create_implicit_coloring_driver"),
))


# ----------------------------------------------------------------------
# Workloads (update-stream generators, by name)
# ----------------------------------------------------------------------

#: ``factory(size, rounds, *, seed, batch_size) -> (initial_edges, batches)``.
WorkloadFactory = Callable[..., tuple[list[tuple[int, int]], list[Batch]]]


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered update-stream generator.

    ``adversarial`` marks the worst-case cascade generators from
    :mod:`repro.graphs.adversarial` (cycle/cascade/clique/star);
    ``churn`` is the benign temporal sliding-window workload.  Soak
    tenant specs and ``repro adversary`` both resolve generators here
    by key, so a config names its traffic shape declaratively instead
    of importing generator functions.
    """

    key: str
    summary: str
    factory: WorkloadFactory
    adversarial: bool = True


_WORKLOADS: dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Add ``spec`` to the workload registry; duplicates rejected."""
    if spec.key in _WORKLOADS:
        raise ValueError(f"workload key {spec.key!r} already registered")
    _WORKLOADS[spec.key] = spec
    return spec


def workload_spec(key: str) -> WorkloadSpec:
    """Look up one workload, or raise ``ValueError`` naming valid keys."""
    try:
        return _WORKLOADS[key]
    except KeyError:
        raise ValueError(
            f"unknown workload key {key!r}; choose from {workload_keys()}"
        ) from None


def workload_keys(adversarial: bool | None = None) -> tuple[str, ...]:
    """Registered workload keys, optionally filtered by ``adversarial``.

    >>> workload_keys()
    ('cycle', 'cascade', 'clique', 'star', 'churn')
    >>> workload_keys(adversarial=False)
    ('churn',)
    """
    return tuple(
        key
        for key, spec in _WORKLOADS.items()
        if adversarial is None or spec.adversarial == adversarial
    )


def make_workload(
    key: str,
    size: int,
    rounds: int,
    *,
    seed: int = 0,
    batch_size: int | None = None,
) -> tuple[list[tuple[int, int]], list[Batch]]:
    """Build ``(initial_edges, batches)`` for one registered workload.

    ``size`` scales the structure (cycle length, chain length, clique
    size, star leaves, churn graph vertices — clamped to each shape's
    minimum); ``rounds`` is the toggle/pulse count for adversarial
    shapes and the approximate batch count for ``churn``.  ``seed`` and
    ``batch_size`` only affect workloads with a random or re-batchable
    stream (currently ``churn``); the adversarial shapes are fully
    deterministic by construction.
    """
    if size < 1:
        raise ValueError("workload size must be >= 1")
    if rounds < 1:
        raise ValueError("workload rounds must be >= 1")
    return workload_spec(key).factory(size, rounds, seed=seed, batch_size=batch_size)


def _adversarial_factory(fn_name: str, min_size: int) -> WorkloadFactory:
    def build(
        size: int,
        rounds: int,
        *,
        seed: int = 0,
        batch_size: int | None = None,
    ) -> tuple[list[tuple[int, int]], list[Batch]]:
        from .graphs import adversarial

        return getattr(adversarial, fn_name)(max(min_size, size), rounds)

    return build


def _churn_factory(
    size: int,
    rounds: int,
    *,
    seed: int = 0,
    batch_size: int | None = None,
) -> tuple[list[tuple[int, int]], list[Batch]]:
    from .graphs.generators import barabasi_albert
    from .graphs.streams import sliding_window_batches

    size = max(8, size)
    edges = barabasi_albert(size, 3, seed=seed)
    if batch_size is None:
        batch_size = max(1, len(edges) // max(2, rounds))
    window = max(batch_size, len(edges) // 2)
    return [], sliding_window_batches(edges, window, batch_size)


register_workload(WorkloadSpec(
    key="cycle",
    summary="n-cycle critical-edge toggle (max-cascade deletions)",
    factory=_adversarial_factory("cycle_toggle", 3),
))
register_workload(WorkloadSpec(
    key="cascade",
    summary="dependency-chain toggle (longest sequential cascade)",
    factory=_adversarial_factory("cascade_chain", 1),
))
register_workload(WorkloadSpec(
    key="clique",
    summary="k-clique build/teardown pulses (max level movement)",
    factory=_adversarial_factory("clique_pulse", 3),
))
register_workload(WorkloadSpec(
    key="star",
    summary="star-center degree pulses (hub stress)",
    factory=_adversarial_factory("star_pulse", 1),
))
register_workload(WorkloadSpec(
    key="churn",
    summary="temporal sliding-window churn over a power-law graph",
    factory=_churn_factory,
    adversarial=False,
))
