"""Scatter-gather coordinator for the sharded PLDS engine.

The :class:`Coordinator` is the registry-facing front of
:mod:`repro.shard` (the ``plds-sharded`` algorithm key): it owns a
:class:`~repro.shard.engine.ShardedEngine`, validates every batch once
at the boundary, scatters the routed edges to owner shards with
**shard-level fault isolation**, drives the ghost-exchange cascade
rounds to quiescence, and gathers query answers.

Fault isolation ladder (bottom rung first):

1. ``shard.apply`` — the per-shard structural apply step.  The
   faultpoint fires *after* the shard mutated; on an
   :class:`~repro.faults.InjectedFault` the coordinator restores that
   one shard from its pre-step snapshot
   (:meth:`~repro.shard.kernel.ShardKernel.capture_state`) and retries
   it, leaving every other shard untouched.
2. Retries exhausted (``shard_retry_limit``) — the fault escapes to the
   :class:`~repro.service.CoreService` transaction, which rolls back
   the *whole* engine (snapshot-capable, so bit-identically) and
   re-applies the batch under its own :class:`~repro.service.RetryPolicy`.

Batch hygiene lives here, once: ``validate_vertex_ids``, self-loop
*dropping* (a stream-boundary convention, matching
:func:`~repro.graphs.streams.preprocess_batch`), canonicalization, and
the Section-8 uniqueness/validity checks — all before any shard
mutates, so the kernels can assume clean per-shard item lists.

Not supported in sharded mode: orientation tracking (Algorithm 5's
``H`` table would need its own touched-edge exchange) and the
vertex-centric ``insert_vertices`` / ``delete_vertices`` API; the
Lemma-5.13 ``core_members`` candidate filter also falls back to the
plain estimate-threshold rule at the service layer (the filter walks a
single level structure).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

from .. import faults as _faults
from ..core.plds import UpdateResult
from ..core.query import EMPTY_EPOCH, EpochSnapshot
from ..faults import InjectedFault
from ..graphs.dynamic_graph import canonical_edge
from ..graphs.streams import Batch, validate_vertex_ids
from ..obs import metrics as _metrics
from ..obs import recorder as _recorder
from ..obs import tracing as _tracing
from ..parallel.engine import WorkDepthTracker
from ..parallel.primitives import log2_ceil
from .engine import ShardedEngine
from .kernel import ShardKernel
from .partition import Partitioner

__all__ = ["Coordinator"]


class Coordinator:
    """Scatter-gather front for the partitioned PLDS engine.

    Parameters mirror :class:`~repro.core.plds.PLDS` where they are
    forwarded to every kernel, plus:

    shards:
        Number of shards (>= 1).
    partition:
        ``"hash"`` (stateless modulo ownership) or ``"degree"``
        (LPT degree-balanced, computed over the initial edge set at
        :meth:`initialize`; later arrivals fall back to hash).
    assignment:
        Optional explicit vertex -> shard map (overrides ``partition``
        bootstrapping; used by snapshot restore).
    shard_retry_limit:
        Apply attempts per shard before a fault escapes to the service
        transaction.
    """

    #: The registry adapter skips its generic ``engine.update`` span —
    #: this engine emits its own richer ``coordinator.update`` span.
    SELF_TRACING = True
    _SPAN_NAME = "coordinator.update"

    def __init__(
        self,
        n_hint: int,
        delta: float = 0.4,
        lam: float = 3.0,
        group_shrink: int = 1,
        upper_coeff: float | None = None,
        tracker: WorkDepthTracker | None = None,
        insertion_strategy: str = "levelwise",
        structure: str = "randomized",
        shards: int = 4,
        partition: str = "hash",
        assignment: dict[int, int] | None = None,
        shard_retry_limit: int = 3,
    ) -> None:
        if shard_retry_limit < 1:
            raise ValueError("shard_retry_limit must be >= 1")
        if partition not in ("hash", "degree"):
            raise ValueError("partition must be 'hash' or 'degree'")
        self.partition = partition
        self.shard_retry_limit = shard_retry_limit
        kind = "degree" if assignment is not None and partition == "degree" else "hash"
        partitioner = Partitioner(shards, kind=kind, assignment=assignment)
        self.engine = ShardedEngine(
            n_hint,
            partitioner,
            delta=delta,
            lam=lam,
            group_shrink=group_shrink,
            upper_coeff=upper_coeff,
            tracker=tracker,
            insertion_strategy=insertion_strategy,
            structure=structure,
        )
        self._initialized = False
        #: O(log #shards) scatter/gather combining depth per batch phase.
        self._route_depth = log2_ceil(max(2, shards)) + 1
        #: epoch store (see :meth:`publish_epoch`).
        self._published: EpochSnapshot | None = None
        self._epoch_serial = 0
        #: vertices moved by the last update(); ``None`` = publish fully.
        self.last_moved: set[int] | None = None
        self._levels_reshaped = False
        #: overload signals from the last batch: cascade rounds and the
        #: per-shard scatter depth vector (admission-control inputs).
        self.last_rounds = 0
        self.last_shard_depths: list[int] = [0] * self.num_shards

    # -- conveniences ---------------------------------------------------

    @property
    def tracker(self) -> WorkDepthTracker:
        return self.engine.tracker

    @property
    def num_shards(self) -> int:
        return self.engine.num_shards

    @property
    def partitioner(self) -> Partitioner:
        return self.engine.partitioner

    @property
    def num_edges(self) -> int:
        return self.engine.num_edges

    @property
    def num_vertices(self) -> int:
        return self.engine.num_vertices

    def edges(self):
        return self.engine.edges()

    def has_edge(self, u: int, v: int) -> bool:
        return self.engine.has_edge(u, v)

    def level(self, v: int) -> int:
        return self.engine.level(v)

    def coreness_estimate(self, v: int) -> float:
        return self.engine.coreness_estimate(v)

    def coreness_estimates(self) -> dict[int, float]:
        return self.engine.coreness_estimates()

    def core_members(self, k: float) -> set[int]:
        return self.engine.core_members(k)

    def core_subgraph(self, k: int) -> tuple[set[int], list[tuple[int, int]]]:
        return self.engine.core_subgraph(k)

    def densest_estimate(self) -> tuple[float, set[int]]:
        return self.engine.densest_estimate()

    def space_bytes(self) -> int:
        return self.engine.space_bytes()

    def check_invariants(self) -> list[str]:
        return self.engine.check_invariants()

    # -- lifecycle ------------------------------------------------------

    def initialize(self, edges: Iterable[tuple[int, int]]) -> None:
        """Bootstrap from an initial edge set.

        With ``partition="degree"`` this is where the degree-balanced
        assignment is computed (over a
        :class:`~repro.graphs.dynamic_graph.DynamicGraph` of the initial
        edges) before any shard holds state; hash partitioning needs no
        bootstrap.  Idempotently a plain batch insert afterwards.
        """
        edges = [canonical_edge(u, v) for u, v in edges]
        if (
            not self._initialized
            and self.partition == "degree"
            and self.engine.num_vertices == 0
            and edges
        ):
            from ..graphs.dynamic_graph import DynamicGraph

            balanced = Partitioner.degree_balanced(
                DynamicGraph(edges), self.num_shards
            )
            self.engine.partitioner = balanced
            self.engine.kernels = [
                self.engine._make_kernel(s, self.engine.n_hint, k.tracker)
                for s, k in enumerate(self.engine.kernels)
            ]
        self._initialized = True
        if edges:
            self.update(Batch(insertions=edges))

    def update(self, batch: Batch) -> UpdateResult:
        """Apply one batch: validate, scatter, cascade, gather."""
        self._initialized = True
        tracer = _tracing.ACTIVE
        if tracer is None:
            result = self._apply_batch(batch)
        else:
            with tracer.span(
                self._SPAN_NAME,
                self.tracker,
                insertions=len(batch.insertions),
                deletions=len(batch.deletions),
                shards=self.num_shards,
            ):
                result = self._apply_batch(batch)
        if self._levels_reshaped:
            self.last_moved = None
            self._levels_reshaped = False
        else:
            self.last_moved = result.moved_vertices
        return result

    def _apply_batch(self, batch: Batch) -> UpdateResult:
        ins, dels = self._clean_batch(batch)
        result = UpdateResult()
        engine = self.engine
        self.last_rounds = 0
        self.last_shard_depths = [0] * self.num_shards
        if ins:
            self._scatter(ins, insert=True)
            rounds, _ = engine.cascade_rounds("rise")
            self.last_rounds += rounds
        if dels:
            self._scatter(dels, insert=False)
            rounds, _ = engine.cascade_rounds("desaturate")
            self.last_rounds += rounds
        result.moved_vertices = engine.take_moved()
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.gauge("shard.lag", self.shard_lag())
        self._maybe_rebuild()
        return result

    def shard_lag(self) -> int:
        """Depth gap between the slowest and fastest *active* shard.

        The admission controller's slow-shard signal: balanced shards
        keep the gap near zero, while one stalled shard (an armed
        :class:`~repro.faults.StallPoint` at ``shard.apply``, or a
        genuinely slow replica) makes its scatter depth tower over the
        rest.  With a single active shard the gap is its full depth —
        one shard doing all the work *is* maximal imbalance.
        """
        active = [d for d in self.last_shard_depths if d > 0]
        if not active:
            return 0
        if len(active) == 1:
            return active[0]
        return max(active) - min(active)

    def _clean_batch(
        self, batch: Batch
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Boundary hygiene, applied exactly once before any shard
        mutates: id validation, self-loop dropping, canonicalization,
        and the Section-8 uniqueness/validity checks."""
        self.tracker.add(work=max(1, len(batch)), depth=5)
        validate_vertex_ids(batch)
        engine = self.engine
        ins: list[tuple[int, int]] = []
        seen_ins: set[tuple[int, int]] = set()
        for u, v in batch.insertions:
            if u == v:
                continue  # self-loops dropped at the boundary
            e = canonical_edge(u, v)
            if e in seen_ins:
                raise ValueError(f"duplicate insertion {e} in batch")
            if engine.has_edge(*e):
                raise ValueError(f"insertion of existing edge {e}")
            seen_ins.add(e)
            ins.append(e)
        dels: list[tuple[int, int]] = []
        seen_dels: set[tuple[int, int]] = set()
        for u, v in batch.deletions:
            if u == v:
                continue
            e = canonical_edge(u, v)
            if e in seen_dels:
                raise ValueError(f"duplicate deletion {e} in batch")
            if e in seen_ins:
                raise ValueError(f"edge {e} both inserted and deleted in batch")
            if not engine.has_edge(*e):
                raise ValueError(f"deletion of missing edge {e}")
            seen_dels.add(e)
            dels.append(e)
        return ins, dels

    # -- fault-isolated scatter ----------------------------------------

    def _scatter(self, edges: list[tuple[int, int]], insert: bool) -> None:
        """Route ``edges`` and apply each shard's items under shard-level
        fault isolation; fold per-shard metering into the engine tracker
        (parallel shards: sum work, max depth).  Ghost-directory commits
        happen only after a shard's step succeeded, so a rolled-back
        shard never leaks directory entries."""
        engine = self.engine
        items = engine.route(edges)
        levels = engine.ghost_levels(edges) if insert else None
        self.tracker.add(work=max(1, len(edges)), depth=self._route_depth)
        tracer = _tracing.ACTIVE
        total = 0
        deepest = 0
        for s, kernel in enumerate(engine.kernels):
            shard_items = items[s]
            if not shard_items:
                continue
            since = kernel.tracker.snapshot()
            span = (
                tracer.begin(
                    "shard.apply",
                    kernel.tracker,
                    shard=s,
                    edges=len(shard_items),
                    insert=insert,
                )
                if tracer is not None
                else None
            )
            try:
                out = self._shard_step(s, kernel, shard_items, levels, insert)
            except BaseException as exc:
                if span is not None:
                    tracer.end(span, error=type(exc).__name__)
                raise
            if span is not None:
                tracer.end(span)
            delta = kernel.tracker.delta(since)
            total += delta.work
            if delta.depth > deepest:
                deepest = delta.depth
            self.last_shard_depths[s] += delta.depth
            if insert:
                engine.register_ghosts(s, out)
            else:
                engine.drop_ghosts(s, out)
        if total:
            self.tracker.add(work=total, depth=deepest)

    def _shard_step(
        self,
        s: int,
        kernel: ShardKernel,
        shard_items: list[tuple[int, int, bool]],
        levels: dict[int, int] | None,
        insert: bool,
    ) -> list[int]:
        mreg = _metrics.ACTIVE
        attempts = 0
        while True:
            attempts += 1
            plan = _faults.ACTIVE
            state = kernel.capture_state() if plan is not None else None
            try:
                if insert:
                    assert levels is not None
                    out = kernel.apply_insertions(shard_items, levels)
                else:
                    out = kernel.apply_deletions(shard_items)
                if plan is not None:
                    # Fires *after* the mutation: an injected crash here
                    # forces a real shard-local rollback, not a no-op.
                    plan.hit("shard.apply")
                    # Slow-shard injection: stall depth lands on *this*
                    # kernel's tracker inside the scatter delta window,
                    # so it shows up in shard_lag() like a genuinely
                    # slow shard (and in the folded engine depth).
                    stall = plan.delay_for("shard.apply")
                    if stall:
                        kernel.tracker.add(work=0, depth=stall)
                return out
            except InjectedFault:
                if state is not None:
                    kernel.restore_state(state)
                if mreg is not None:
                    mreg.inc("shard.rollbacks", shard=str(s))
                rec = _recorder.ACTIVE
                if rec is not None:
                    rec.note("shard.rollback", shard=s, attempt=attempts)
                if attempts >= self.shard_retry_limit:
                    raise

    def _maybe_rebuild(self) -> None:
        engine = self.engine
        if not engine.needs_rebuild():
            return
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("shard.rebuilds")
        tracer = _tracing.ACTIVE
        if tracer is None:
            engine.rebuild()
            return
        with tracer.span(
            "shard.rebuild",
            self.tracker,
            vertices=engine.num_vertices,
            edges=engine.num_edges,
        ):
            engine.rebuild()

    # -- epoch-versioned reads ------------------------------------------

    def publish_epoch(
        self, touched: Iterable[int] | None = None
    ) -> EpochSnapshot:
        """Publish a coordinator epoch over a *stable* per-shard vector.

        Call only at a quiescent commit point (between batches): every
        kernel publishes its local epoch first, then the coordinator
        merges them under one serial, so the recorded ``shard_epochs``
        vector is exactly the set of shard states the merged image was
        gathered from — an immutable consistent cut, not a racy
        read-one-shard-at-a-time sample.

        Copy-on-write: with ``touched`` given (batch endpoints plus
        :attr:`last_moved`), the previous coordinator image is copied
        and only the touched vertices re-read from their owner kernels'
        fresh epochs; after an engine-coordinated rebuild (which resets
        every kernel) the image is republished from scratch.
        """
        engine = self.engine
        kernels = engine.kernels
        if self._levels_reshaped or engine._levels_reshaped:
            touched = None
            self._levels_reshaped = False
            engine._levels_reshaped = False
        owner = engine.partitioner.owner
        if touched is None:
            per_shard: list[set[int]] | None = None
        else:
            per_shard = [set() for _ in kernels]
            for v in touched:
                per_shard[owner(v)].add(v)
        snaps = [
            k.publish_epoch(None if per_shard is None else per_shard[s])
            for s, k in enumerate(kernels)
        ]
        prev = self._published
        if prev is None or per_shard is None:
            estimates: dict[int, float] = {}
            levels: dict[int, int] = {}
            for snap in snaps:
                estimates.update(snap.estimates)
                levels.update(snap.levels)
        else:
            estimates = prev.estimates.copy()
            levels = prev.levels.copy()
            for s, snap in enumerate(snaps):
                for v in per_shard[s]:
                    est = snap.estimates.get(v)
                    if est is None:
                        estimates.pop(v, None)
                        levels.pop(v, None)
                    else:
                        estimates[v] = est
                        levels[v] = snap.levels[v]
        self._epoch_serial += 1
        view = EpochSnapshot(
            epoch=self._epoch_serial,
            estimates=MappingProxyType(estimates),
            levels=MappingProxyType(levels),
            shard_epochs=tuple(s.epoch for s in snaps),
        )
        self._published = view
        mreg = _metrics.ACTIVE
        if mreg is not None:
            for s, snap in enumerate(snaps):
                mreg.gauge("shard.read_epoch", snap.epoch, shard=str(s))
        return view

    def read_view(self) -> EpochSnapshot:
        """Last published coordinator epoch (empty epoch 0 before any)."""
        pub = self._published
        return pub if pub is not None else EMPTY_EPOCH

    @property
    def read_epoch(self) -> int:
        return self._epoch_serial

    # -- snapshots ------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-serializable snapshot, stored shard-by-shard.

        Each shard section holds its local levels and its *counted*
        edges; the union reconstructs the global structure (levels
        fully determine the U/L partitions, as for the monolithic
        PLDS).  The partitioner's explicit assignment rides along so a
        restore re-creates the exact same ownership, ghost sets, and
        directory.  As for :class:`~repro.core.plds.PLDS`, this is the
        O(1) :meth:`snapshot_header` composed with the gathered level
        image and edge set by :meth:`compose_snapshot`.
        """
        return self.compose_snapshot(
            self.snapshot_header(),
            {v: lvl for v, lvl, _ in self.engine._level_items()},
            self.engine.edges(),
        )

    def snapshot_header(self) -> dict:
        """The O(1) parameter part of :meth:`to_snapshot` (``n_hint``
        changes on a rebuild, so take it before the state to restore)."""
        engine = self.engine
        return {
            "format": 1,
            "sharded": True,
            "params": {
                "n_hint": engine.n_hint,
                "delta": engine.delta,
                "lam": engine.lam,
                "group_shrink": engine.group_shrink,
                "upper_coeff": engine.upper_coeff,
                "insertion_strategy": engine.insertion_strategy,
                "structure": engine.structure,
                "shards": engine.num_shards,
                "partition": self.partition,
                "shard_retry_limit": self.shard_retry_limit,
            },
        }

    def compose_snapshot(
        self,
        header: dict,
        levels: Mapping[int, int],
        edges: Iterable[tuple[int, int]],
    ) -> dict:
        """A :meth:`to_snapshot` dict from a header, a global vertex ->
        level map, and canonical edges, split by owner shard.

        The assignment is read here, not in the header: it is fixed
        once :meth:`initialize` ran, so it is the same for any state of
        this coordinator that a header could describe.
        """
        partitioner = self.engine.partitioner
        owner = partitioner.owner
        shards = range(partitioner.num_shards)
        shard_levels: list[list[list[int]]] = [[] for _ in shards]
        shard_edges: list[list[tuple[int, int]]] = [[] for _ in shards]
        for v, lvl in levels.items():
            shard_levels[owner(v)].append([v, lvl])
        for e in edges:
            shard_edges[owner(e[0])].append(e)  # counted on owner(min)
        return {
            **header,
            "assignment": partitioner.assignment_items(),
            "shards": [
                {
                    "shard": s,
                    "levels": sorted(shard_levels[s]),
                    "edges": sorted(shard_edges[s]),
                }
                for s in shards
            ],
        }

    @classmethod
    def from_snapshot(
        cls, snapshot: dict, tracker: WorkDepthTracker | None = None
    ) -> "Coordinator":
        """Reconstruct a coordinator from :meth:`to_snapshot` output,
        shard by shard: levels verbatim, each edge re-linked on both
        endpoint owners (ghosts at their owners' snapshotted levels),
        directory rebuilt — no replay, bit-identical estimates."""
        if snapshot.get("format") != 1 or not snapshot.get("sharded"):
            raise ValueError("unsupported sharded snapshot format")
        params = dict(snapshot["params"])
        assignment = {v: s for v, s in snapshot.get("assignment") or []}
        coord = cls(
            tracker=tracker, assignment=assignment or None, **params
        )
        coord._initialized = True
        engine = coord.engine
        owner = engine.partitioner.owner
        levels: dict[int, int] = {}
        all_edges: list[tuple[int, int]] = []
        for section in snapshot["shards"]:
            s = section["shard"]
            for v, lvl in section["levels"]:
                if owner(v) != s:
                    raise ValueError(
                        f"snapshot places {v} on shard {s}, owner is {owner(v)}"
                    )
                if not 0 <= lvl < engine.kernels[s].num_levels:
                    raise ValueError(
                        f"level {lvl} of vertex {v} out of range"
                    )
                levels[v] = lvl
                rec = engine.kernels[s]._record(v)
                rec.level = lvl
            all_edges.extend(tuple(e) for e in section["edges"])
        for u, v in all_edges:
            if u not in levels or v not in levels:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            su, sv = owner(u), owner(v)
            ghosts: list[int] = []
            ku = engine.kernels[su]
            ku._link_records(
                ku._vertices[u], ku._materialize(v, levels, ghosts)
            )
            ku._m += 1  # counted on the min-endpoint owner (u < v)
            engine.register_ghosts(su, ghosts)
            if sv != su:
                ghosts = []
                kv = engine.kernels[sv]
                kv._link_records(
                    kv._materialize(u, levels, ghosts), kv._vertices[v]
                )
                engine.register_ghosts(sv, ghosts)
        return coord

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Coordinator(shards={self.num_shards}, "
            f"partition={self.partition!r}, n={self.num_vertices}, "
            f"m={self.num_edges})"
        )
