"""Sharded PLDS engine: scatter-gather over per-shard kernels.

The :class:`Coordinator` is the registry-facing engine of
:mod:`repro.shard` (the ``plds-sharded`` algorithm key).  It owns one
:class:`~repro.shard.kernel.ShardKernel` per shard plus the two pieces
of cross-shard state:

- the **ghost directory** ``vertex -> {shards holding a ghost of it}``,
  which routes a vertex's move events to exactly the shards that mirror
  it (the owner is never in the set);
- the **rebuild** policy: the Section-5.9 trigger reads the *global*
  vertex count and re-sizes every kernel to the same global ``n_hint``,
  because the per-level threshold tables are a function of ``n_hint``
  and must match the monolithic PLDS for bit-identical rise/desaturate
  decisions.  A rise past the top level rebuilds every kernel on a
  doubled table mid-batch, the same growth rule as the PLDS.

It validates every batch once at the boundary, scatters the routed
edges to owner shards with **shard-level fault isolation**, drives the
ghost-exchange cascade rounds to quiescence, and answers queries and
publishes read epochs as a :class:`~repro.core.query.QueryView` host
over the kernels' local records (never their ghosts).  In a round each
shard with work cascades to *local* quiescence, then every vertex that
moved is sent once, at its final level, to the shards mirroring it, and
each shard replays its incoming events as one parallel step; rounds
repeat only while the exchange left some shard with work.

Cost accounting: :attr:`Coordinator.tracker` is the authoritative meter
(the one the registry adapter and the service read).  Kernels meter
into private per-shard trackers; each phase is folded in as

    ``work  = sum(shard deltas) [+ messages]``
    ``depth = max(shard deltas) [+ ghost-exchange depth]``

i.e. shards run in parallel (max over the per-shard critical paths)
and each message round pays ``max(apply depths) + ceil(log2 messages)
+ 1`` for the exchange barrier, where a shard's apply depth is the
deepest single ghost replay — the simulated ``T_p`` therefore
accounts for the max-over-shards critical path plus the ghost-exchange
rounds, as ``docs/cost_model.md`` specifies.

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

Every batch is checked once, before any shard mutates, against the
same Section-8 contract as the single-structure PLDS
(:func:`~repro.graphs.streams.check_batch`: a negative id, self-loop,
duplicate, overlap, present insertion or missing deletion raises), so
the kernels can assume clean, canonical per-shard item lists.  The
degree partition's bootstrap (:meth:`Coordinator.initialize`) runs the
same check on the initial edges before it computes the assignment.

Not supported in sharded mode: orientation tracking (Algorithm 5's
``H`` table would need its own touched-edge exchange) and the
vertex-centric ``insert_vertices`` / ``delete_vertices`` API.  The
service answers ``core_members`` here with the plain ``estimate >= k``
rule, not the Lemma-5.13 candidate filter it uses on the PLDS family;
either way the answer is one level cut
(:meth:`~repro.core.query.QueryView.level_cut`) over each kernel's
local records.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, starmap
from typing import Iterable, Iterator, Mapping

from .. import faults as _faults
from ..core.plds import UpdateResult, _LevelOverflow, _VertexRecord
from ..core.query import EpochSnapshot, QueryView
from ..faults import InjectedFault
from ..graphs.streams import Batch, check_batch
from ..obs import metrics as _metrics
from ..obs import recorder as _recorder
from ..obs import tracing as _tracing
from ..parallel.engine import WorkDepthTracker
from ..parallel.primitives import log2_ceil
from .kernel import MoveEvent, ShardKernel
from .partition import Partitioner

__all__ = ["Coordinator"]


class Coordinator(QueryView):
    """Partitioned PLDS: per-shard kernels, ghost directory, rounds.

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
        self.partitioner = Partitioner(shards, kind=kind, assignment=assignment)
        self.num_shards = shards
        self.n_hint = max(2, n_hint)
        self.delta = delta
        self.lam = lam
        self.group_shrink = group_shrink
        self.upper_coeff = upper_coeff
        self.insertion_strategy = insertion_strategy
        self.structure = structure
        self.tracker = tracker if tracker is not None else WorkDepthTracker()
        self.kernels: list[ShardKernel] = [
            self._make_kernel(s, self.n_hint, None) for s in range(shards)
        ]
        #: ghost directory: vertex -> shards holding a ghost of it.
        self._ghost_sites: dict[int, set[int]] = {}
        self._initialized = False
        #: O(log #shards) scatter/gather combining depth per batch phase.
        self._route_depth = log2_ceil(max(2, shards)) + 1
        #: overload signals from the last batch: cascade rounds and the
        #: per-shard scatter depth vector (admission-control inputs).
        self.last_rounds = 0
        self.last_shard_depths: list[int] = [0] * shards

    def _make_kernel(
        self, s: int, n_hint: int, kernel_tracker: WorkDepthTracker | None
    ) -> ShardKernel:
        owner = self.partitioner.owner
        return ShardKernel(
            shard_id=s,
            owns=lambda v, s=s: owner(v) == s,
            n_hint=n_hint,
            delta=self.delta,
            lam=self.lam,
            group_shrink=self.group_shrink,
            upper_coeff=self.upper_coeff,
            tracker=kernel_tracker,
            insertion_strategy=self.insertion_strategy,
            structure=self.structure,
        )

    # -- lifecycle ------------------------------------------------------

    def initialize(self, edges: Iterable[tuple[int, int]]) -> None:
        """Bootstrap from an initial edge set.

        With ``partition="degree"`` this is where the degree-balanced
        assignment is computed, from the degrees of the initial edges,
        before any shard holds state; the edges pass the same batch
        check as :meth:`update` first, so a malformed initial set is
        rejected with the same message under either partition and
        leaves no trace.  Hash partitioning needs no bootstrap.
        Idempotently a plain batch insert afterwards.
        """
        edges = list(edges)
        if (
            not self._initialized
            and self.partition == "degree"
            and self.num_vertices == 0
            and edges
        ):
            ins = check_batch(Batch(insertions=edges), self._lookup_edges)[0]
            degrees = Counter(chain.from_iterable(ins))
            self.partitioner = Partitioner.degree_balanced(degrees, self.num_shards)
            self.kernels = [
                self._make_kernel(s, self.n_hint, k.tracker)
                for s, k in enumerate(self.kernels)
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
        self.tracker.add(work=max(1, len(batch)), depth=5)
        ins, dels, _, _ = check_batch(batch, self._lookup_edges)
        result = UpdateResult()
        moved = result.moved_vertices
        self.last_rounds = 0
        self.last_shard_depths = [0] * self.num_shards
        if ins:
            self._scatter(ins, insert=True)
            try:
                self.last_rounds += self.cascade_rounds("rise", moved)
            except _LevelOverflow:
                # As in PLDS: re-level every shard on a doubled table.
                # The kernels hold every inserted edge, which is all a
                # rebuild reads; the deletions route to the new kernels.
                self._maybe_rebuild(2 * self.n_hint)
        if dels:
            self._scatter(dels, insert=False)
            self.last_rounds += self.cascade_rounds("desaturate", moved)
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

    # -- routing and the ghost directory --------------------------------

    def _route(
        self, edges: Iterable[tuple[int, int]]
    ) -> list[list[tuple[int, int, bool]]]:
        """Route canonical edges to owner shards.

        Each edge goes to the owners of *both* endpoints (once when they
        coincide); ``counted`` is ``True`` only for the min-endpoint
        owner, preserving the global edge count across shards.
        """
        owner = self.partitioner.owner
        items: list[list[tuple[int, int, bool]]] = [
            [] for _ in range(self.num_shards)
        ]
        for u, v in edges:
            su = owner(u)
            sv = owner(v)
            items[su].append((u, v, True))
            if sv != su:
                items[sv].append((u, v, False))
        return items

    def _ghost_levels(
        self, edges: Iterable[tuple[int, int]]
    ) -> dict[int, int]:
        """Current owner-side level of every endpoint in ``edges`` (for
        materializing up-to-date ghosts during an insertion scatter)."""
        owner = self.partitioner.owner
        kernels = self.kernels
        levels: dict[int, int] = {}
        for u, v in edges:
            if u not in levels:
                levels[u] = kernels[owner(u)].level(u)
            if v not in levels:
                levels[v] = kernels[owner(v)].level(v)
        return levels

    def _register_ghosts(self, shard: int, ids: Iterable[int]) -> None:
        for v in ids:
            sites = self._ghost_sites.get(v)
            if sites is None:
                self._ghost_sites[v] = {shard}
            else:
                sites.add(shard)

    def _drop_ghosts(self, shard: int, ids: Iterable[int]) -> None:
        for v in ids:
            sites = self._ghost_sites.get(v)
            if sites is not None:
                sites.discard(shard)
                if not sites:
                    del self._ghost_sites[v]

    # -- fault-isolated scatter ----------------------------------------

    def _scatter(self, edges: dict[tuple[int, int], None], insert: bool) -> None:
        """Route ``edges`` and apply each shard's items under shard-level
        fault isolation; fold per-shard metering into :attr:`tracker`
        (parallel shards: sum work, max depth).  Ghost-directory commits
        happen only after a shard's step succeeded, so a rolled-back
        shard never leaks directory entries."""
        items = self._route(edges)
        levels = self._ghost_levels(edges) if insert else None
        self.tracker.add(work=max(1, len(edges)), depth=self._route_depth)
        tracer = _tracing.ACTIVE
        total = 0
        deepest = 0
        for s, kernel in enumerate(self.kernels):
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
                self._register_ghosts(s, out)
            else:
                self._drop_ghosts(s, out)
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

    # -- cascade rounds (scatter-gather quiescence loop) ----------------

    def cascade_rounds(self, phase: str, moved: set[int]) -> int:
        """Run ``phase`` (``"rise"`` or ``"desaturate"``) rounds until
        global quiescence, adding every local vertex that moved to
        ``moved``; returns the number of rounds.

        Each round: every shard with work settles to local quiescence
        (:meth:`~repro.shard.kernel.ShardKernel.settle`), each moved
        vertex is sent once, at its final level, to every shard the
        ghost directory says mirrors it, and each target shard replays
        its events (sorted by vertex, so replay and its metering are
        deterministic) as one parallel step.  A new round runs only
        while some shard has work after the exchange.  :attr:`tracker`
        is charged once per round with the parallel composition
        described in the module docstring; the per-round ``shard.round``
        span carries ``level`` (the lowest starting level among the
        settling shards) and ``messages``, so the reconciliation

            ``round.work == sum(child span work) + messages``

        holds with integer equality.
        """
        if phase == "rise":
            site = "plds.rise"
            min_of = ShardKernel.min_dirty_level
            rise = True
        elif phase == "desaturate":
            site = "plds.desaturate"
            min_of = ShardKernel.min_pending_level
            rise = False
            self._scan_affected()
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown cascade phase {phase!r}")
        tracker = self.tracker
        kernels = self.kernels
        ghost_sites = self._ghost_sites
        rounds = 0
        while True:
            starts = [
                (s, k, start)
                for s, k in enumerate(kernels)
                if (start := min_of(k)) is not None
            ]
            if not starts:
                return rounds
            level = min(start for _s, _k, start in starts)
            rounds += 1
            fault_plan = _faults.ACTIVE
            if fault_plan is not None:
                fault_plan.hit(site)
            tracer = _tracing.ACTIVE
            mreg = _metrics.ACTIVE
            round_span = (
                tracer.begin(
                    "shard.round", tracker, phase=phase, level=level
                )
                if tracer is not None
                else None
            )
            local_work = 0
            local_depth = 0
            events: list[list[MoveEvent]] = [[] for _ in kernels]
            messages = 0
            for s, k, start in starts:
                since = k.tracker.snapshot()
                span = (
                    tracer.begin(
                        f"shard.{phase}", k.tracker, shard=s, level=start
                    )
                    if tracer is not None
                    else None
                )
                try:
                    moves = k.settle(rise)
                except _LevelOverflow:
                    if round_span is not None:
                        tracer.end(round_span, error="_LevelOverflow")
                    raise
                if span is not None:
                    tracer.end(span)
                delta = k.tracker.delta(since)
                local_work += delta.work
                if delta.depth > local_depth:
                    local_depth = delta.depth
                if not moves:
                    continue
                moved.update(moves)
                if mreg is not None:
                    mreg.inc("shard.moves", len(moves), shard=str(s), phase=phase)
                for ev in moves.items():
                    sites = ghost_sites.get(ev[0])
                    if sites:
                        for t in sites:
                            events[t].append(ev)
                        messages += len(sites)
            apply_work = 0
            apply_depth = 0
            for t, evs in enumerate(events):
                if not evs:
                    continue
                evs.sort()
                k = kernels[t]
                since = k.tracker.snapshot()
                span = (
                    tracer.begin(
                        "shard.ghost_apply",
                        k.tracker,
                        shard=t,
                        events=len(evs),
                    )
                    if tracer is not None
                    else None
                )
                k.apply_moves(evs)
                if span is not None:
                    tracer.end(span)
                delta = k.tracker.delta(since)
                apply_work += delta.work
                if delta.depth > apply_depth:
                    apply_depth = delta.depth
            exchange_depth = (
                apply_depth + log2_ceil(messages) + 1 if messages else 0
            )
            tracker.add(
                work=local_work + apply_work + messages,
                depth=local_depth + exchange_depth,
            )
            if round_span is not None:
                round_span.attrs["messages"] = messages
                tracer.end(round_span)
            if mreg is not None:
                mreg.inc("shard.rounds", phase=phase)
                if messages:
                    mreg.inc("shard.messages", messages, phase=phase)
                mreg.observe("shard.round_messages", messages, phase=phase)

    def _scan_affected(self) -> None:
        """Fold every shard's post-deletion desire scans into
        :attr:`tracker` (parallel across shards: sum work, max depth)."""
        total = 0
        deepest = 0
        for k in self.kernels:
            since = k.tracker.snapshot()
            k.consider_affected()
            delta = k.tracker.delta(since)
            total += delta.work
            if delta.depth > deepest:
                deepest = delta.depth
        if total:
            self.tracker.add(work=total, depth=deepest)

    # -- rebuild (Section 5.9, globally coordinated) --------------------

    def _maybe_rebuild(self, min_hint: int = 0) -> None:
        # A non-zero ``min_hint`` forces a rebuild to at least that hint.
        if not min_hint and self.num_vertices <= self.n_hint:
            return
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("shard.rebuilds")
        tracer = _tracing.ACTIVE
        if tracer is None:
            self._rebuild(min_hint)
            return
        with tracer.span(
            "shard.rebuild",
            self.tracker,
            vertices=self.num_vertices,
            edges=self.num_edges,
        ):
            self._rebuild(min_hint)

    def _rebuild(self, min_hint: int = 0) -> None:
        """Re-size every kernel to the global ``max(2, 2·n, min_hint)``
        hint (the rule of :meth:`PLDS._rebuild`) and replay.

        Charges the same gather cost as the monolithic rebuild, then
        replays the edge set through the normal scatter + rise-round
        machinery from all-zero levels — which converges to the same
        least fixpoint (and hence the same estimates) as the monolithic
        replay, whatever the shard count.
        """
        edges = sorted(self.edges())
        verts = sorted(self.vertices())
        new_hint = max(2, 2 * len(verts), min_hint)
        self.tracker.add(
            work=max(1, len(edges) + len(verts)),
            depth=log2_ceil(max(2, len(edges))) + 1,
        )
        self.n_hint = new_hint
        self.kernels = [
            self._make_kernel(s, new_hint, k.tracker)
            for s, k in enumerate(self.kernels)
        ]
        self._ghost_sites = {}
        owner = self.partitioner.owner
        for v in verts:  # keep isolated vertices alive at level 0
            self.kernels[owner(v)]._record(v)
        if edges:
            self.replay_insert(edges)
        # Every level was re-derived: the next publication must be
        # from scratch (update() turns this into last_moved = None).
        self._levels_reshaped = True

    def replay_insert(self, edges: list[tuple[int, int]]) -> None:
        """Plain (fault-transparent) insertion scatter + rise rounds —
        the rebuild path; live batches go through the fault-isolated
        :meth:`_scatter` instead, which also charges the routing step."""
        items = self._route(edges)
        levels = self._ghost_levels(edges)
        total = 0
        deepest = 0
        for s, k in enumerate(self.kernels):
            if not items[s]:
                continue
            since = k.tracker.snapshot()
            new_ghosts = k.apply_insertions(items[s], levels)
            delta = k.tracker.delta(since)
            total += delta.work
            if delta.depth > deepest:
                deepest = delta.depth
            self._register_ghosts(s, new_ghosts)
        if total:
            self.tracker.add(work=total, depth=deepest)
        self.cascade_rounds("rise", set())  # replay moves are not batch moves

    # -- gathered queries -----------------------------------------------

    # The shared QueryView surface (coreness_estimate / estimates /
    # core_members / densest_estimate / core_subgraph / publish_epoch)
    # gathers over the kernels through these hooks; shard-local vertex
    # sets are disjoint, so chaining kernels merges without conflicts.

    def _records(self) -> Iterable[_VertexRecord]:
        # Local records only: a ghost is answered by its owner shard.
        return chain.from_iterable(k._vertices.values() for k in self.kernels)

    def _level_deg_of(self, v: int) -> tuple[int, int] | None:
        return self.kernels[self.partitioner.owner(v)]._level_deg_of(v)

    # Every kernel is built from the same global parameters (the
    # coordinated rebuild re-sizes all shards together), so shard 0
    # answers for the estimate tables and the error bound.

    @property
    def levels_per_group(self) -> int:
        return self.kernels[0].levels_per_group

    @property
    def _group_pow(self) -> list[float]:
        return self.kernels[0]._group_pow

    def approximation_factor(self) -> float:
        """The provable max error ratio of the kernels (Lemma 5.13; a
        guarantee only for ``group_shrink == 1``)."""
        return self.kernels[0].approximation_factor()

    def level(self, v: int) -> int:
        return self.kernels[self.partitioner.owner(v)].level(v)

    def vertices(self) -> Iterator[int]:
        for k in self.kernels:
            yield from k._vertices

    def has_edge(self, u: int, v: int) -> bool:
        return self.kernels[self.partitioner.owner(u)].has_edge(u, v)

    def _lookup_edges(self, edges: Iterable[tuple[int, int]]) -> tuple[int, None]:
        """:func:`check_batch`'s membership step, over :meth:`has_edge`."""
        return sum(starmap(self.has_edge, edges)), None

    @property
    def num_edges(self) -> int:
        return sum(k._m for k in self.kernels)

    @property
    def num_vertices(self) -> int:
        return sum(len(k._vertices) for k in self.kernels)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge exactly once (each kernel yields its counted set)."""
        for k in self.kernels:
            yield from k.edges()

    def space_bytes(self) -> int:
        total = sum(k.space_bytes() for k in self.kernels)
        for sites in self._ghost_sites.values():
            total += 8 + 8 * len(sites)  # directory entry
        return total

    # -- epoch-versioned reads ------------------------------------------

    def publish_epoch(
        self, touched: Iterable[int] | None = None
    ) -> EpochSnapshot:
        """:meth:`QueryView.publish_epoch` over the owner kernels' records.

        A kernel-level vertex insert/delete re-levels that shard outside
        batch move accounting, so it forces a full publish here, as the
        coordinated rebuild does through :attr:`last_moved`.  Shard-local
        rollback leaves the published epoch alone: readers keep the last
        epoch published here, never a half-applied state.
        """
        for k in self.kernels:
            if k._levels_reshaped:
                k._levels_reshaped = False
                touched = None
        return super().publish_epoch(touched)

    # -- cross-shard consistency checks ---------------------------------

    def check_invariants(self) -> list[str]:
        """Per-kernel checks (shard-prefixed) + mirror/directory audit."""
        problems: list[str] = []
        kernels = self.kernels
        owner = self.partitioner.owner
        for s, k in enumerate(kernels):
            problems.extend(f"shard {s}: {p}" for p in k.check_invariants())
        for v, sites in sorted(self._ghost_sites.items()):
            ov = owner(v)
            orec = kernels[ov]._vertices.get(v)
            if orec is None:
                problems.append(f"ghost directory lists unknown vertex {v}")
                continue
            for t in sorted(sites):
                if t == ov:
                    problems.append(
                        f"directory says {v} is a ghost on its owner shard {t}"
                    )
                    continue
                g = kernels[t]._ghosts.get(v)
                if g is None:
                    problems.append(
                        f"directory says shard {t} mirrors {v}; it does not"
                    )
                elif g.level != orec.level:
                    problems.append(
                        f"ghost of {v} on shard {t} at level {g.level}, "
                        f"owner holds level {orec.level}"
                    )
        for t, k in enumerate(kernels):
            for v, g in k._ghosts.items():
                if t not in self._ghost_sites.get(v, ()):
                    problems.append(
                        f"shard {t} holds unregistered ghost of {v}"
                    )
                    continue
                home = kernels[owner(v)]
                for w in g.neighbors():
                    if not home.has_edge(v, w):
                        problems.append(
                            f"mirror edge ({v},{w}) on shard {t} missing "
                            f"from owner shard {owner(v)}"
                        )
        return problems

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
            {r.id: r.level for r in self._records()},
            self.edges(),
        )

    def snapshot_header(self) -> dict:
        """The O(1) parameter part of :meth:`to_snapshot` (``n_hint``
        changes on a rebuild, so take it before the state to restore)."""
        return {
            "format": 1,
            "sharded": True,
            "params": {
                "n_hint": self.n_hint,
                "delta": self.delta,
                "lam": self.lam,
                "group_shrink": self.group_shrink,
                "upper_coeff": self.upper_coeff,
                "insertion_strategy": self.insertion_strategy,
                "structure": self.structure,
                "shards": self.num_shards,
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
        partitioner = self.partitioner
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
        kernels = coord.kernels
        owner = coord.partitioner.owner
        levels: dict[int, int] = {}
        all_edges: list[tuple[int, int]] = []
        for section in snapshot["shards"]:
            s = section["shard"]
            for v, lvl in section["levels"]:
                if owner(v) != s:
                    raise ValueError(
                        f"snapshot places {v} on shard {s}, owner is {owner(v)}"
                    )
                if not 0 <= lvl < kernels[s].num_levels:
                    raise ValueError(
                        f"level {lvl} of vertex {v} out of range"
                    )
                levels[v] = lvl
                rec = kernels[s]._record(v)
                rec.level = lvl
            all_edges.extend(tuple(e) for e in section["edges"])
        for u, v in all_edges:
            if u not in levels or v not in levels:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            su, sv = owner(u), owner(v)
            ghosts: list[int] = []
            ku = kernels[su]
            ku._link_records(
                ku._vertices[u], ku._materialize(v, levels, ghosts)
            )
            ku._m += 1  # counted on the min-endpoint owner (u < v)
            coord._register_ghosts(su, ghosts)
            if sv != su:
                ghosts = []
                kv = kernels[sv]
                kv._link_records(
                    kv._materialize(u, levels, ghosts), kv._vertices[v]
                )
                coord._register_ghosts(sv, ghosts)
        return coord

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Coordinator(shards={self.num_shards}, "
            f"partition={self.partition!r}, n={self.num_vertices}, "
            f"m={self.num_edges}, ghosts={len(self._ghost_sites)})"
        )
