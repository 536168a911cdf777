"""Parallel Level Data Structure (PLDS) — the paper's core contribution.

Implements Section 5 of Liu, Shi, Yu, Dhulipala, Shun (SPAA 2022):

- the level/group structure with Invariant 1 (degree upper bound) and
  Invariant 2 (degree lower bound);
- ``Update`` (Algorithm 1) splitting a batch into insertions and deletions;
- ``RebalanceInsertions`` (Algorithm 2): level-by-level upward movement of
  marked vertices, processing each level exactly once (Lemma 5.5);
- ``RebalanceDeletions`` (Algorithm 3): desire-level computation and
  single-shot downward moves (Lemma 5.6);
- ``CalculateDesireLevel`` (Algorithm 4): cost-equivalent scan for the
  closest level satisfying both invariants;
- coreness estimation (Definition 5.11, Lemmas 5.12/5.13) giving a
  ``(1+δ)(2+3/λ)``-factor — i.e. ``(2+ε)`` — approximation;
- low out-degree orientation maintenance (Algorithm 5, Section 5.7).

Parallelism is *simulated*: vertex moves within a level execute
sequentially in a canonical order (equivalent by the paper's Lemma 5.9)
while their work/depth is metered by a
:class:`~repro.parallel.engine.WorkDepthTracker` using the parallel
composition rules.

Two configurations matter experimentally (Section 6):

- **PLDS**: ``4⌈log_{1+δ} n⌉`` levels per group (the theoretical
  structure, default);
- **PLDSOpt**: levels per group divided by ``group_shrink=50``, trading a
  slightly worse approximation bound for large constant-factor speedups.

Example
-------
>>> from repro.core.plds import PLDS
>>> from repro.graphs.streams import Batch
>>> plds = PLDS(n_hint=100)
>>> plds.update(Batch(insertions=[(0, 1), (1, 2), (0, 2)]))  # a triangle
>>> plds.coreness_estimate(0) >= 1
True
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .. import faults as _faults
from ..graphs.dynamic_graph import canonical_edge
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..graphs.streams import Batch
from ..parallel.engine import WorkDepthTracker
from ..parallel.hashtable import LOG_STAR_DEPTH
from ..parallel.primitives import log2_ceil
from .query import QueryView

__all__ = ["PLDS", "UpdateResult", "DirectedEdge"]

#: A directed edge (tail, head): oriented tail -> head.
DirectedEdge = tuple[int, int]


def _mark(buckets: dict[int, list[int]], level: int, v: int) -> None:
    """Insert ``v`` into the sorted-unique cascade bucket for ``level``.

    The rebalancing cascades keep every dirty/pending bucket as a sorted
    list of vertex ids, so the mover lists handed to ``flat_parfor`` are
    already in canonical order — no per-round re-sort (the buckets used
    to be sets of records hashing by address, forcing each round to sort
    its movers from scratch).
    """
    bucket = buckets.get(level)
    if bucket is None:
        buckets[level] = [v]
        return
    i = bisect_left(bucket, v)
    if i == len(bucket) or bucket[i] != v:
        bucket.insert(i, v)


def _is_sorted_unique(items: list[int]) -> bool:
    return all(items[i] < items[i + 1] for i in range(len(items) - 1))


@dataclass
class UpdateResult:
    """What :meth:`PLDS.update` reports about one batch (Algorithm 5).

    Attributes
    ----------
    flipped:
        Edges whose orientation changed, as directed edges giving the
        orientation *before* the flip.
    oriented_insertions:
        The batch's inserted edges, directed per the *post-batch*
        orientation.
    oriented_deletions:
        The batch's deleted edges, directed per the *pre-batch*
        orientation.
    moved_vertices:
        Vertices whose level changed while processing the batch.
    """

    flipped: list[DirectedEdge] = field(default_factory=list)
    oriented_insertions: list[DirectedEdge] = field(default_factory=list)
    oriented_deletions: list[DirectedEdge] = field(default_factory=list)
    moved_vertices: set[int] = field(default_factory=set)


class _VertexRecord:
    """Per-vertex PLDS state.

    ``up`` holds neighbors at levels >= the vertex's level (the paper's
    ``U[v]``); ``down`` maps each lower level ``j`` to the set of neighbors
    there (the paper's ``L_v[j]``; only non-empty levels are stored, which
    realizes the space-efficient variant of Section 5.8).

    Both structures store the neighbors' *records* (by reference), not
    their ids — the rebalancing loops read a neighbor's level on every
    visit, and a direct attribute load is substantially cheaper than an
    id -> record dict lookup.  This mirrors the pointer-based adjacency
    of the paper's C++ implementation.  Records hash by address, so set
    iteration order is not reproducible across runs; every consumer that
    feeds metered work orders movers by ``id`` first (or is provably
    order-insensitive).

    ``deg`` caches the total degree: it is maintained incrementally on
    every edge insertion/deletion (level moves shuffle neighbors between
    ``up`` and ``down`` but never change the degree), so ``degree()`` is
    O(1) instead of re-summing every down-level set.

    ``ghost`` marks a read-mostly replica of a vertex owned by another
    shard (:mod:`repro.shard`): the record mirrors the owner's level and
    the adjacency restricted to the holding shard's local vertices.  The
    monolithic PLDS never sets it; cascade primitives treat ghost and
    local records identically (the level-message boundary lives in the
    shard kernel, which skips marking ghosts and emits move events
    instead).
    """

    __slots__ = ("id", "level", "up", "down", "deg", "ghost")

    def __init__(self, vid: int) -> None:
        self.id = vid
        self.level = 0
        self.up: set["_VertexRecord"] = set()
        self.down: dict[int, set["_VertexRecord"]] = {}
        self.deg = 0
        self.ghost = False

    def degree(self) -> int:
        return self.deg

    def neighbors(self) -> Iterator[int]:
        for r in self.up:
            yield r.id
        for s in self.down.values():
            for r in s:
                yield r.id


class PLDS(QueryView):
    """Batch-dynamic ``(2+ε)``-approximate k-core decomposition.

    Parameters
    ----------
    n_hint:
        Expected upper bound on the number of vertices; sizes the level
        structure (``K = O(log² n)`` levels).  The structure rebuilds
        automatically if the live vertex count exceeds it.
    delta:
        The ``δ > 0`` constant: group ``i`` thresholds scale as
        ``(1+δ)^i``.  Default 0.4 (the paper's experimental default).
    lam:
        The ``λ > 0`` constant in the Invariant-1 coefficient
        ``(2 + 3/λ)``.  Default 3 (paper default; max error bound
        ``(1+δ)(2+3/λ) = 4.2``).
    group_shrink:
        Divide the theoretical levels-per-group by this factor
        (PLDSOpt uses 50; Section 6.1).  1 = exact theoretical structure.
    upper_coeff:
        Override the Invariant-1 coefficient (the paper's *heuristic
        parameters* replace ``2 + 3/λ`` with 1.1, forfeiting the proofs
        but improving empirical error; Section 6.2).
    tracker:
        Work-depth meter; a private one is created if omitted.
    track_orientation:
        Maintain the edge-orientation hash table ``H`` and report flips
        (Algorithm 5).  Required by the Section-8 framework; off by
        default since plain coreness queries do not need it.
    insertion_strategy:
        ``"levelwise"`` (default) follows Algorithm 2 exactly: violating
        vertices rise one level per level-iteration.  ``"jump"`` applies
        the implementation optimization of Section 6.1: each violating
        vertex computes its upward desire-level directly (the first
        higher level satisfying Invariant 1) and moves there in one step
        — asymptotically the same, practically much faster.
    structure:
        Which of the paper's data-structure variants to model
        (Section 5.8).  All three compute identical results; they differ
        in the metered depth of per-level bookkeeping and in space:

        - ``"randomized"`` — parallel hash tables: O(log* n) depth,
          O(n log² n + m) space (default; the paper's implementation);
        - ``"deterministic"`` — dynamic arrays: O(log n) worst-case
          depth per level, O(n log² n + m) space;
        - ``"space_efficient"`` — per-level linked lists: O(log² n)
          depth per level, O(n + m) space.
    """

    #: per-variant (depth-charge-fn, charges-level-slots) table; the
    #: depth charge is applied per batched structure mutation.
    _STRUCTURES = ("randomized", "deterministic", "space_efficient")

    def __init__(
        self,
        n_hint: int,
        delta: float = 0.4,
        lam: float = 3.0,
        group_shrink: int = 1,
        upper_coeff: float | None = None,
        tracker: WorkDepthTracker | None = None,
        track_orientation: bool = False,
        insertion_strategy: str = "levelwise",
        structure: str = "randomized",
    ) -> None:
        if n_hint < 2:
            n_hint = 2
        if delta <= 0:
            raise ValueError("delta must be > 0")
        if lam <= 0:
            raise ValueError("lambda must be > 0")
        if group_shrink < 1:
            raise ValueError("group_shrink must be >= 1")
        if insertion_strategy not in ("levelwise", "jump"):
            raise ValueError("insertion_strategy must be 'levelwise' or 'jump'")
        if structure not in self._STRUCTURES:
            raise ValueError(f"structure must be one of {self._STRUCTURES}")
        self.n_hint = n_hint
        self.delta = delta
        self.lam = lam
        self.group_shrink = group_shrink
        self.upper_coeff = (2.0 + 3.0 / lam) if upper_coeff is None else upper_coeff
        self.tracker = tracker if tracker is not None else WorkDepthTracker()
        self.track_orientation = track_orientation
        self.insertion_strategy = insertion_strategy
        self.structure = structure

        log_base = math.log(n_hint) / math.log(1.0 + delta)
        #: levels per group: 4⌈log_{1+δ} n⌉, divided by group_shrink for Opt.
        self.levels_per_group = max(1, math.ceil(4 * math.ceil(log_base) / group_shrink))
        #: groups: enough that the top group's Invariant-1 bound exceeds 2n.
        self.num_groups = math.ceil(log_base) + 2
        #: K — total number of levels.
        self.num_levels = self.levels_per_group * self.num_groups

        self._vertices: dict[int, _VertexRecord] = {}
        self._m = 0
        #: vertex insert/delete counter for the Section-5.9 rebuild policy.
        self._vertex_updates = 0
        #: orientation table H: canonical edge -> directed edge (tail, head).
        self._orient: dict[tuple[int, int], DirectedEdge] = {}
        #: edges whose endpoints' relative order may have changed this batch.
        self._touched: set[tuple[int, int]] = set()

        # Per-mutation depth charge of the selected structure variant
        # (Section 5.8): hash tables O(log* n); dynamic arrays pay an
        # O(log n) resize/offset computation; per-level linked lists pay a
        # linear search over the O(log² n) list nodes.
        if structure == "randomized":
            self._mut_depth = LOG_STAR_DEPTH
        elif structure == "deterministic":
            self._mut_depth = log2_ceil(n_hint) + 1
        else:  # space_efficient
            self._mut_depth = max(LOG_STAR_DEPTH, self.num_levels // 4 + 1)

        # Precompute per-rebuild threshold tables.  The floats keep the
        # documented semantics (and diagnostics); the integer tables are
        # what the hot loops consult — for an integer count c and a real
        # bound b, ``c > b`` iff ``c > floor(b)`` and ``c >= b`` iff
        # ``c >= ceil(b)``, so the int comparisons are exactly equivalent
        # while skipping float conversion on every check.
        self._group_of_level = [
            lvl // self.levels_per_group for lvl in range(self.num_levels)
        ]
        self._inv1_bound = [
            self.upper_coeff * (1.0 + delta) ** g for g in self._group_of_level
        ]
        self._inv2_thresh = [0.0] + [
            (1.0 + delta) ** self._group_of_level[lvl - 1]
            for lvl in range(1, self.num_levels)
        ]
        self._inv1_bound_int = [math.floor(b) for b in self._inv1_bound]
        self._inv2_thresh_int = [math.ceil(t) for t in self._inv2_thresh]
        #: (1+δ)^g per group — consulted by coreness_estimate instead of
        #: recomputing the power on every query.
        self._group_pow = [
            (1.0 + delta) ** g for g in range(self.num_groups + 2)
        ]
        #: O(log K) depth charge of a desire-level scan, precomputed.
        self._levels_depth = log2_ceil(self.num_levels) + 1

    # ------------------------------------------------------------------
    # Level/group arithmetic
    # ------------------------------------------------------------------

    def group_number(self, level: int) -> int:
        """``gn(ℓ)``: index of the group containing ``level``."""
        return level // self.levels_per_group

    def inv1_bound(self, level: int) -> float:
        """Invariant-1 upper bound ``(2+3/λ)(1+δ)^{gn(ℓ)}`` at ``level``."""
        return self._inv1_bound[level]

    def inv2_threshold(self, level: int) -> float:
        """Invariant-2 lower bound ``(1+δ)^{gn(ℓ-1)}`` for a vertex at ``level``."""
        return self._inv2_thresh[level]

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def level(self, v: int) -> int:
        """Current level ``ℓ(v)`` (0 for unknown/isolated vertices)."""
        rec = self._vertices.get(v)
        return rec.level if rec is not None else 0

    def up_degree(self, v: int) -> int:
        """``up(v)``: number of neighbors at levels >= ``ℓ(v)``."""
        rec = self._vertices.get(v)
        return len(rec.up) if rec is not None else 0

    def up_star_degree(self, v: int) -> int:
        """``up*(v)``: number of neighbors at levels >= ``ℓ(v) - 1``."""
        rec = self._vertices.get(v)
        if rec is None:
            return 0
        below = rec.down.get(rec.level - 1)
        return len(rec.up) + (len(below) if below else 0)

    def degree(self, v: int) -> int:
        rec = self._vertices.get(v)
        return rec.deg if rec is not None else 0

    def neighbors(self, v: int) -> list[int]:
        # Sorted: the underlying record sets iterate in address order,
        # which is not reproducible across runs.
        rec = self._vertices.get(v)
        return sorted(rec.neighbors()) if rec is not None else []

    def has_edge(self, u: int, v: int) -> bool:
        ru = self._vertices.get(u)
        rv = self._vertices.get(v)
        if ru is None or rv is None:
            return False
        if rv.level >= ru.level:
            return rv in ru.up
        return rv in ru.down.get(rv.level, ())

    @property
    def num_edges(self) -> int:
        return self._m

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    def vertices(self) -> Iterator[int]:
        return iter(self._vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges in canonical form."""
        for v, rec in self._vertices.items():
            for w in rec.neighbors():
                if v < w:
                    yield (v, w)

    # ------------------------------------------------------------------
    # Coreness estimation (Definition 5.11)
    # ------------------------------------------------------------------
    # coreness_estimate / coreness_estimates / core_members /
    # core_subgraph / densest_estimate come from the shared
    # :class:`~repro.core.query.QueryView` over the two hooks below.

    def _level_items(self) -> Iterator[tuple[int, int, int]]:
        for v, rec in self._vertices.items():
            yield v, rec.level, rec.deg

    def _level_deg_of(self, v: int) -> tuple[int, int] | None:
        rec = self._vertices.get(v)
        return (rec.level, rec.deg) if rec is not None else None

    def approximation_factor(self) -> float:
        """The provable max error ratio ``(2+3/λ)(1+δ)`` (Lemma 5.13).

        Only a guarantee for ``group_shrink == 1`` (PLDSOpt trades the
        proof for speed; Section 6.1).
        """
        return self.upper_coeff * (1.0 + self.delta)

    # ------------------------------------------------------------------
    # Orientation (Section 5.7, Algorithm 5)
    # ------------------------------------------------------------------

    def orientation_of(self, u: int, v: int) -> DirectedEdge:
        """Current orientation of edge {u, v}: lower level -> higher level,
        ties broken toward the larger index (smaller index is the tail)."""
        lu, lv = self.level(u), self.level(v)
        if lu < lv or (lu == lv and u < v):
            return (u, v)
        return (v, u)

    def out_neighbors(self, v: int) -> list[int]:
        """Neighbors w with edge oriented v -> w; all live in ``U[v]``."""
        rec = self._vertices.get(v)
        if rec is None:
            return []
        lv = rec.level
        out = []
        for wrec in rec.up:
            lw = wrec.level
            if lw > lv or (lw == lv and v < wrec.id):
                out.append(wrec.id)
        out.sort()
        return out

    def out_degree(self, v: int) -> int:
        # Counts in place — the materialized list out_neighbors() builds
        # is pure overhead when only the count is needed.
        rec = self._vertices.get(v)
        if rec is None:
            return 0
        lv = rec.level
        count = 0
        for wrec in rec.up:
            lw = wrec.level
            if lw > lv or (lw == lv and v < wrec.id):
                count += 1
        return count

    def in_neighbors(self, v: int) -> list[int]:
        """Neighbors w with edge oriented w -> v."""
        rec = self._vertices.get(v)
        if rec is None:
            return []
        lv = rec.level
        # Every down-neighbor sits strictly below v (edge points up into
        # v); an up-neighbor points into v only from the same level with
        # the smaller id.
        inn = [wrec.id for wrec in rec.up if wrec.level == lv and wrec.id < v]
        for s in rec.down.values():
            inn.extend(wrec.id for wrec in s)
        inn.sort()
        return inn

    def oriented_edges(self) -> Iterator[DirectedEdge]:
        for u, v in self.edges():
            yield self.orientation_of(u, v)

    # ------------------------------------------------------------------
    # Vertex updates (Section 5.9)
    # ------------------------------------------------------------------

    def insert_vertices(self, vs: Iterable[int]) -> None:
        """Insert zero-degree vertices (placed at level 0)."""
        count = 0
        for v in vs:
            if not self._has_vertex(v):
                count += 1
            self._record(v)
        self._vertex_updates += count
        self._maybe_rebuild()
        self._levels_reshaped = True

    def delete_vertices(self, vs: Iterable[int]) -> UpdateResult:
        """Delete vertices: all incident edges become one deletion batch."""
        vs = set(vs)
        dels: list[tuple[int, int]] = []
        for v in vs:
            if not self._has_vertex(v):
                continue
            for w in self.neighbors(v):
                e = canonical_edge(v, w)
                if e[0] in vs and e[1] in vs and e[0] != v:
                    continue  # count each intra-set edge once
                dels.append(e)
        result = self.update(Batch(deletions=dels))
        for v in vs:
            if self._drop_vertex(v):
                self._vertex_updates += 1
        self._maybe_rebuild()
        self._levels_reshaped = True
        return result

    # ------------------------------------------------------------------
    # Algorithm 1: Update
    # ------------------------------------------------------------------

    #: Span name of :meth:`update`; subclasses override (``lds.update``).
    _SPAN_NAME = "plds.update"

    def update(self, batch: Batch) -> UpdateResult:
        """Apply a batch of unique, valid edge updates (Algorithm 1).

        Insertions are rebalanced first (Algorithm 2), then deletions
        (Algorithm 3); orientation changes are derived afterwards
        (Algorithm 5).  Returns an :class:`UpdateResult`.

        The batch is validated up front (uniqueness, validity, and
        insert/delete disjointness — the Section-8 assumptions), so an
        invalid batch raises ``ValueError`` *before* any mutation; use
        :func:`repro.graphs.streams.preprocess_batch` to clean raw
        streams.
        """
        tracer = _tracing.ACTIVE
        if tracer is None:
            result = self._apply_batch(batch)
        else:
            with tracer.span(
                self._SPAN_NAME,
                self.tracker,
                insertions=len(batch.insertions),
                deletions=len(batch.deletions),
            ):
                result = self._apply_batch(batch)
        # Incremental-publication bookkeeping (repro.core.query): a
        # rebuild re-levels every vertex, so batch moves alone no longer
        # bound what changed — fall back to the full-publish sentinel.
        if self._levels_reshaped:
            self.last_moved = None
            self._levels_reshaped = False
        else:
            self.last_moved = result.moved_vertices
        return result

    def _apply_batch(self, batch: Batch) -> UpdateResult:
        self._validate_batch(batch)
        result = UpdateResult()
        self._touched = set()

        # Pre-batch orientations of deleted edges (Algorithm 5: deletions
        # report the orientation *before* the batch).
        if self.track_orientation:
            for e in batch.deletions:
                d = self._orient.get(e)
                if d is None:
                    d = self.orientation_of(*e)
                result.oriented_deletions.append(d)
                self._orient.pop(e, None)

        moved: set[int] = set()
        if batch.insertions:
            self._rebalance_insertions(batch.insertions, moved)
        if batch.deletions:
            self._rebalance_deletions(batch.deletions, moved)
        result.moved_vertices = moved

        if self.track_orientation:
            self._finish_orientation(batch, result)
        self._maybe_rebuild()
        return result

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> UpdateResult:
        """Convenience wrapper: one insertion-only batch."""
        return self.update(Batch(insertions=[canonical_edge(*e) for e in edges]))

    def delete_edges(self, edges: Iterable[tuple[int, int]]) -> UpdateResult:
        """Convenience wrapper: one deletion-only batch."""
        return self.update(Batch(deletions=[canonical_edge(*e) for e in edges]))

    def _validate_batch(self, batch: Batch) -> None:
        """Check the Section-8 batch assumptions before mutating anything."""
        self.tracker.add(work=max(1, len(batch)), depth=5)
        ins = set()
        for u, v in batch.insertions:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) in batch")
            e = canonical_edge(u, v)
            if e in ins:
                raise ValueError(f"duplicate insertion {e} in batch")
            if self.has_edge(*e):
                raise ValueError(f"insertion of existing edge {e}")
            ins.add(e)
        dels = set()
        for u, v in batch.deletions:
            e = canonical_edge(u, v)
            if e in dels:
                raise ValueError(f"duplicate deletion {e} in batch")
            if e in ins:
                raise ValueError(f"edge {e} both inserted and deleted in batch")
            if not self.has_edge(*e):
                raise ValueError(f"deletion of missing edge {e}")
            dels.add(e)

    # ------------------------------------------------------------------
    # Algorithm 2: RebalanceInsertions
    # ------------------------------------------------------------------

    def _rebalance_insertions(
        self, insertions: list[tuple[int, int]], moved: set[int]
    ) -> None:
        tracker = self.tracker
        vertices = self._vertices
        # Insert all edges into the structures (parallel hash inserts).
        # Dirty buckets are sorted-unique id lists (see :func:`_mark`), so
        # each round's movers come out in canonical order for free.
        dirty: dict[int, list[int]] = {}
        tracker.add(work=2 * len(insertions), depth=self._mut_depth)
        for u, v in insertions:
            for r in self._insert_edge_struct(u, v):
                _mark(dirty, r.level, r.id)

        bounds = self._inv1_bound_int
        jump = self.insertion_strategy == "jump"

        def rise(v: int) -> None:
            # Jump strategy only; the levelwise path is inlined below.
            rec = vertices[v]
            newly_marked = self._move_up_to(rec, self._up_desire_level(rec))
            moved.add(v)
            if len(rec.up) > bounds[rec.level]:
                newly_marked.append(rec)
            for wrec in newly_marked:
                _mark(dirty, wrec.level, wrec.id)

        track = self.track_orientation
        touched = self._touched
        mut_depth = self._mut_depth
        fault_plan = _faults.ACTIVE
        tracer = _tracing.ACTIVE
        mreg = _metrics.ACTIVE

        # Process levels bottom-up; Lemma 5.5 guarantees each level is
        # visited at most once (marks only propagate upward, so min(dirty)
        # is non-decreasing across iterations).
        while dirty:
            if fault_plan is not None:
                fault_plan.hit("plds.rise")
            level = min(dirty)
            candidates = dirty.pop(level)
            span = (
                tracer.begin(
                    "plds.rise", tracker, level=level, queue=len(candidates)
                )
                if tracer is not None
                else None
            )
            if mreg is not None:
                mreg.inc("plds.rise_levels")
                mreg.observe("plds.cascade_queue", len(candidates), phase="rise")
            tracker.add(work=1, depth=1)  # the level-loop iteration itself
            bound = bounds[level]
            if jump:
                movers = [
                    v
                    for v in candidates
                    if (rec := vertices[v]).level == level
                    and len(rec.up) > bound
                ]
                if not movers:
                    if span is not None:
                        tracer.end(span)
                    continue
                # The bucket is already sorted-unique, so the filtered
                # mover list is in canonical order without a re-sort.
                if __debug__:
                    assert _is_sorted_unique(movers)
                tracker.flat_parfor(movers, rise)
                if span is not None:
                    span.attrs["movers"] = len(movers)
                    tracer.end(span)
                continue
            # Levelwise fast path: :meth:`_move_up` inlined with aggregate
            # charging.  Each rise would charge (|U[v]| or 1, mut_depth)
            # into its own flat_parfor branch; the fold into the enclosing
            # frame is (sum of the works, mut_depth), charged once below.
            # All movers rise exactly one level, and every vertex they
            # newly mark sits exactly at ``level + 1``, so the dirty
            # bucket is updated in bulk too.
            target = level + 1
            bound_t = bounds[target]
            # A neighbor that already violated Invariant 1 at ``target``
            # before this level iteration is already in some dirty bucket
            # (edge inserts mark both endpoints; every rise re-marks the
            # riser while it still violates), so a riser only needs to
            # mark w on the exact bound crossing — later redundant marks
            # would be deduplicated by the dirty set anyway.
            crossing = bound_t + 1
            total_work = 0
            marked_next: list[int] = []
            marked_append = marked_next.append
            moved_add = moved.add
            # Movers are visited in ascending-id bucket order.  Any order
            # is parity-safe: a mover's U-set cardinality is unchanged
            # while its own level is being processed (same-level risers
            # re-add themselves to exactly the sets they left), so each
            # captured |U[v]| — and hence the aggregate work charge — is
            # order-invariant, and each target neighbor is marked exactly
            # once (bound-crossing add, or its own move) in every order.
            if track:
                for v in candidates:
                    rec = vertices[v]
                    if rec.level != level:
                        continue
                    up = rec.up
                    if len(up) <= bound:
                        continue
                    moved_add(v)
                    total_work += len(up)
                    stay = None
                    for wrec in up:
                        lw = wrec.level
                        if lw == level:
                            # w stays below v; v remains in U[w].
                            if stay is None:
                                stay = [wrec]
                            else:
                                stay.append(wrec)
                            w = wrec.id
                            touched.add((v, w) if v <= w else (w, v))
                        else:
                            wdown = wrec.down
                            bucket = wdown[level]
                            bucket.discard(rec)
                            if not bucket:
                                del wdown[level]
                            if lw == target:
                                wup = wrec.up
                                wup.add(rec)
                                if len(wup) == crossing:
                                    marked_append(wrec.id)
                                w = wrec.id
                                touched.add((v, w) if v <= w else (w, v))
                            else:  # lw > target: w's L-structure shifts.
                                slot = wdown.get(target)
                                if slot is None:
                                    wdown[target] = {rec}
                                else:
                                    slot.add(rec)
                    if stay is not None:
                        up.difference_update(stay)
                        slot = rec.down.get(level)
                        if slot is None:
                            rec.down[level] = set(stay)
                        else:
                            slot.update(stay)
                    rec.level = target
                    if len(up) > bound_t:
                        marked_append(v)
            else:
                # Same loop, minus orientation bookkeeping (the default).
                for v in candidates:
                    rec = vertices[v]
                    if rec.level != level:
                        continue
                    up = rec.up
                    if len(up) <= bound:
                        continue
                    moved_add(v)
                    total_work += len(up)
                    stay = None
                    for wrec in up:
                        lw = wrec.level
                        if lw == level:
                            # w stays below v; v remains in U[w].
                            if stay is None:
                                stay = [wrec]
                            else:
                                stay.append(wrec)
                        else:
                            wdown = wrec.down
                            bucket = wdown[level]
                            bucket.discard(rec)
                            if not bucket:
                                del wdown[level]
                            if lw == target:
                                wup = wrec.up
                                wup.add(rec)
                                if len(wup) == crossing:
                                    marked_append(wrec.id)
                            else:  # lw > target: w's L-structure shifts.
                                slot = wdown.get(target)
                                if slot is None:
                                    wdown[target] = {rec}
                                else:
                                    slot.add(rec)
                    if stay is not None:
                        up.difference_update(stay)
                        slot = rec.down.get(level)
                        if slot is None:
                            rec.down[level] = set(stay)
                        else:
                            slot.update(stay)
                    rec.level = target
                    if len(up) > bound_t:
                        marked_append(v)
            if not total_work:
                if span is not None:
                    tracer.end(span)
                continue  # no mover survived the filter at this level
            tracker.add(total_work, mut_depth)
            if marked_next:
                # Within a level iteration every vertex is marked at most
                # once (see the order-invariance note above), so one sort
                # yields the bucket's canonical sorted-unique form.
                bucket = dirty.get(target)
                if bucket is None:
                    marked_next.sort()
                    dirty[target] = marked_next
                else:
                    for w in marked_next:
                        _mark(dirty, target, w)
            if span is not None:
                tracer.end(span)

    def _move_up(self, rec: "_VertexRecord") -> list["_VertexRecord"]:
        """Move ``rec``'s vertex one level up (Algorithm 2's unit step).

        Specialized single-level version of :meth:`_move_up_to` — the
        dominant operation of levelwise insertion rebalancing.  With
        ``target = old + 1`` an up-neighbor is either at exactly ``old``
        (it stays below v; handled in bulk with C-level set operations),
        at ``old + 1`` (v rises into its U-set), or higher (its L-slot
        for v slides up one level).  Unlike :meth:`_move_up_to`, the
        returned violation list (of records) includes ``v``'s own record
        when v still violates Invariant 1 at the new level, so callers
        skip the re-check.  Takes the record (not the id) so shard
        kernels can apply the same step to ghost replicas that live
        outside ``_vertices``.  Cost: O(|U[v]|) work, O(log* n) depth —
        identical charges to the generic path.
        """
        v = rec.id
        old = rec.level
        target = old + 1
        up = rec.up
        self.tracker.add(len(up) or 1, self._mut_depth)
        track = self.track_orientation
        touched = self._touched
        bounds = self._inv1_bound_int

        stay: list[_VertexRecord] = []
        newly_marked: list[_VertexRecord] = []
        for wrec in up:
            lw = wrec.level
            if lw == old:
                # w stays below v; v remains in U[w].
                stay.append(wrec)
                if track:
                    w = wrec.id
                    touched.add((v, w) if v <= w else (w, v))
            else:
                wdown = wrec.down
                bucket = wdown[old]
                bucket.discard(rec)
                if not bucket:
                    del wdown[old]
                if lw == target:
                    wup = wrec.up
                    wup.add(rec)
                    if len(wup) > bounds[target]:
                        newly_marked.append(wrec)
                    if track:
                        w = wrec.id
                        touched.add((v, w) if v <= w else (w, v))
                else:  # lw > target: only w's L-structure shifts.
                    slot = wdown.get(target)
                    if slot is None:
                        wdown[target] = {rec}
                    else:
                        slot.add(rec)
        if stay:
            up.difference_update(stay)
            slot = rec.down.get(old)
            if slot is None:
                rec.down[old] = set(stay)
            else:
                slot.update(stay)
        rec.level = target
        if len(up) > bounds[target]:
            newly_marked.append(rec)
        return newly_marked

    def _move_up_to(
        self, rec: "_VertexRecord", target: int
    ) -> list["_VertexRecord"]:
        """Move ``rec`` up to ``target``, updating all affected structures.

        ``target == old + 1`` is the theoretical Algorithm 2 step; larger
        jumps implement the Section-6.1 optimization.  Returns the records
        of neighbors whose up-degree grew and now violate Invariant 1 (to
        be marked).  Record-based so shard kernels can move ghost
        replicas.  Cost: O(|U[v]|) work, O(log* n) depth.
        """
        v = rec.id
        old = rec.level
        if target <= old:
            raise AssertionError("move_up_to requires a strictly higher level")
        self.tracker.add(work=max(1, len(rec.up)), depth=self._mut_depth)
        track = self.track_orientation
        touched = self._touched
        bounds = self._inv1_bound_int

        to_down: list[tuple[_VertexRecord, int]] = []
        newly_marked: list[_VertexRecord] = []
        for wrec in rec.up:
            lw = wrec.level
            if lw == old:
                # w stays below v; v remains in U[w].
                to_down.append((wrec, lw))
                if track:
                    w = wrec.id
                    touched.add((v, w) if v <= w else (w, v))
            elif lw <= target:
                # old < lw <= target: v rises into U[w].
                bucket = wrec.down[old]
                bucket.discard(rec)
                if not bucket:
                    del wrec.down[old]
                wrec.up.add(rec)
                if len(wrec.up) > bounds[lw]:
                    newly_marked.append(wrec)
                if lw < target:
                    # w is now strictly below v.
                    to_down.append((wrec, lw))
                if track:
                    w = wrec.id
                    touched.add((v, w) if v <= w else (w, v))
            else:  # lw > target: only w's L-structure shifts.
                bucket = wrec.down[old]
                bucket.discard(rec)
                if not bucket:
                    del wrec.down[old]
                slot = wrec.down.get(target)
                if slot is None:
                    wrec.down[target] = {rec}
                else:
                    slot.add(rec)
        down = rec.down
        for wrec, lw in to_down:
            rec.up.discard(wrec)
            slot = down.get(lw)
            if slot is None:
                down[lw] = {wrec}
            else:
                slot.add(wrec)
        rec.level = target
        return newly_marked

    def _up_desire_level(self, rec: "_VertexRecord") -> int:
        """First level above ℓ(v) where Invariant 1 holds (Section 6.1).

        ``cnt(j)`` = #neighbors at levels >= j is non-increasing in j
        while the bound grows, so the first satisfying level is the
        closest.  Invariant 2 holds there automatically: the level below
        violated Invariant 1, so ``cnt(j-1) > (2+3/λ)(1+δ)^{gn(j-1)} >=
        (1+δ)^{gn(j-1)}``.
        """
        old = rec.level
        # Histogram the up-neighbor levels once, then walk upward dropping
        # the count of neighbors below each candidate level (all up
        # neighbors sit at levels >= old, so only exact-level counts are
        # ever subtracted) — same scan the sorted version did, without the
        # O(d log d) sort.
        counts: dict[int, int] = {}
        for wrec in rec.up:
            lw = wrec.level
            counts[lw] = counts.get(lw, 0) + 1
        cnt = len(rec.up)
        bounds = self._inv1_bound_int
        counts_get = counts.get
        j = old
        while True:
            j += 1
            dropped = counts_get(j - 1)
            if dropped:
                cnt -= dropped
            if cnt <= bounds[j]:
                break
        self.tracker.add(
            work=max(1, len(rec.up) + (j - old)),
            depth=self._levels_depth,
        )
        return j

    # ------------------------------------------------------------------
    # Algorithm 3: RebalanceDeletions
    # ------------------------------------------------------------------

    def _rebalance_deletions(
        self, deletions: list[tuple[int, int]], moved: set[int]
    ) -> None:
        tracker = self.tracker
        tracker.add(work=2 * len(deletions), depth=self._mut_depth)
        affected: set[int] = set()
        for u, v in deletions:
            self._delete_edge_struct(u, v)
            affected.add(u)
            affected.add(v)

        desire: dict[int, int] = {}
        # Pending buckets are sorted-unique id lists (see :func:`_mark`).
        pending: dict[int, list[int]] = {}
        vertices = self._vertices
        thresholds = self._inv2_thresh_int

        def consider(w: int) -> None:
            rec = vertices[w]
            lvl = rec.level
            if lvl == 0:
                return
            below = rec.down.get(lvl - 1)
            up_star = len(rec.up) + (len(below) if below else 0)
            if up_star < thresholds[lvl]:
                dl = self._calculate_desire_level(rec)
                desire[w] = dl
                _mark(pending, dl, w)

        tracker.flat_parfor(sorted(affected), consider)

        # Process levels bottom-up; each vertex moves exactly once
        # (Lemma 5.6: once level i is done, no vertex desires <= i).
        #
        # A stored desire-level can go stale in one way the "weakened"
        # propagation cannot see: a neighbor later drops below the pending
        # vertex's *target* level (while staying at/above its current
        # level minus one).  We therefore revalidate dl(v) at move time;
        # a changed value re-enqueues the vertex (desire-levels only
        # decrease during a deletion phase, so this terminates).
        fault_plan = _faults.ACTIVE
        tracer = _tracing.ACTIVE
        mreg = _metrics.ACTIVE
        while pending:
            if fault_plan is not None:
                fault_plan.hit("plds.desaturate")
            level = min(pending)
            bucket = pending.pop(level)
            span = (
                tracer.begin(
                    "plds.desaturate", tracker, level=level, queue=len(bucket)
                )
                if tracer is not None
                else None
            )
            if mreg is not None:
                mreg.inc("plds.desaturate_levels")
                mreg.observe(
                    "plds.cascade_queue", len(bucket), phase="desaturate"
                )
            movers = [
                v
                for v in bucket
                if desire.get(v) == level and vertices[v].level > level
            ]
            tracker.add(work=1, depth=1)
            if not movers:
                if span is not None:
                    tracer.end(span)
                continue

            def descend(v: int, level: int = level) -> None:
                rec = vertices[v]
                fresh = self._calculate_desire_level(rec)
                if fresh != level:
                    if fresh < rec.level:
                        desire[v] = fresh
                        _mark(pending, fresh, v)
                    else:
                        desire.pop(v, None)
                    return
                weakened = self._move_down(rec, level)
                moved.add(v)
                desire.pop(v, None)
                for wrec in weakened:
                    w = wrec.id
                    if desire.get(w) is not None:
                        # stale pending entry is skipped lazily
                        desire.pop(w, None)
                    consider(w)

            # Buckets are sorted-unique, so the filtered mover list is
            # already in canonical order — no per-round re-sort.
            if __debug__:
                assert _is_sorted_unique(movers)
            tracker.flat_parfor(movers, descend)
            if span is not None:
                span.attrs["movers"] = len(movers)
                tracer.end(span)

    def _move_down(
        self, rec: "_VertexRecord", new_level: int
    ) -> list["_VertexRecord"]:
        """Move ``rec`` down to ``new_level``, updating affected structures.

        Returns the records of neighbors whose ``up*`` decreased
        (candidates for new Invariant-2 violations).  Record-based (and
        record-returning) so shard kernels can move ghost replicas and
        partition the weakened set into local re-checks vs. remote
        messages.  Cost: O(#neighbors at levels >= new_level) work,
        O(log* n) depth.
        """
        v = rec.id
        old = rec.level
        if new_level >= old:
            raise AssertionError("move_down requires a strictly lower level")
        tracker = self.tracker
        track = self.track_orientation
        touched = self._touched
        weakened: list[_VertexRecord] = []
        ops = len(rec.up)

        # Neighbors formerly above or at v's old level.
        for wrec in rec.up:
            lw = wrec.level
            wdown = wrec.down
            if lw == old:
                wrec.up.discard(rec)
            else:  # lw > old
                bucket = wdown[old]
                bucket.discard(rec)
                if not bucket:
                    del wdown[old]
            slot = wdown.get(new_level)
            if slot is None:
                wdown[new_level] = {rec}
            else:
                slot.add(rec)
            # v left Z_{lw-1} iff new_level < lw - 1 <= old.
            if new_level < lw - 1 <= old:
                weakened.append(wrec)
            if track and lw <= old:
                w = wrec.id
                touched.add((v, w) if v <= w else (w, v))

        # Neighbors between new_level and old-1 move from L_v into U[v].
        rec_up_add = rec.up.add
        for j in range(new_level, old):
            bucket = rec.down.pop(j, None)
            if not bucket:
                continue
            ops += len(bucket)
            for wrec in bucket:
                rec_up_add(wrec)
                lw = wrec.level
                if new_level < lw:
                    wrec.up.discard(rec)
                    wdown = wrec.down
                    slot = wdown.get(new_level)
                    if slot is None:
                        wdown[new_level] = {rec}
                    else:
                        slot.add(rec)
                    if new_level < lw - 1 <= old:
                        weakened.append(wrec)
                if track:
                    w = wrec.id
                    touched.add((v, w) if v <= w else (w, v))

        rec.level = new_level
        tracker.add(work=max(1, ops), depth=self._mut_depth)
        return weakened

    # ------------------------------------------------------------------
    # Algorithm 4: CalculateDesireLevel
    # ------------------------------------------------------------------

    def _calculate_desire_level(self, rec: "_VertexRecord") -> int:
        """Closest level <= ℓ(v) satisfying both invariants.

        Scans downward accumulating ``cnt(j)`` = #neighbors at levels >= j
        and returns the *highest* level ``l'`` with
        ``cnt(l'-1) >= (1+δ)^{gn(l'-1)}`` (or 0 for degree-0 vertices).
        Invariant 1 holds automatically at that level: by maximality,
        ``cnt(l') < (1+δ)^{gn(l')} <= (2+3/λ)(1+δ)^{gn(l')}``.

        The scan does the same O(ℓ(v) - dl(v)) work as the paper's
        doubling-plus-binary-search; we charge the parallel version's
        O(log K) depth.
        """
        lvl = rec.level
        cnt = len(rec.up)
        scanned = 1
        best = 0
        down_get = rec.down.get
        thresholds = self._inv2_thresh_int
        for lprime in range(lvl, 0, -1):
            bucket = down_get(lprime - 1)
            if bucket:
                cnt += len(bucket)
            scanned += 1
            if cnt >= thresholds[lprime]:
                best = lprime
                break
        self.tracker.add(work=scanned, depth=self._levels_depth)
        return best

    # ------------------------------------------------------------------
    # Structure-level edge insertion/deletion
    # ------------------------------------------------------------------

    def _record(self, v: int) -> _VertexRecord:
        rec = self._vertices.get(v)
        if rec is None:
            rec = _VertexRecord(v)
            self._vertices[v] = rec
        return rec

    # The three hooks below exist so array-backed subclasses (the flat
    # engine in :mod:`repro.core.plds_flat`) can reuse the generic
    # vertex-update / rebuild / snapshot drivers without records.

    def _has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def _drop_vertex(self, v: int) -> bool:
        """Remove an (isolated) vertex; True if it existed."""
        return self._vertices.pop(v, None) is not None

    def _restore_level(self, v: int, level: int) -> None:
        """Create ``v`` at ``level`` (snapshot restore; no rebalancing)."""
        self._record(v).level = level

    @staticmethod
    def _link_records(ru: _VertexRecord, rv: _VertexRecord) -> None:
        """Wire the edge (ru, rv) into both records' U/L structures.

        Placement follows the level rule only — no duplicate/self-loop
        checks and no ``_m`` accounting, so shard kernels can link a
        (local, ghost) record pair under their own edge-count discipline.
        """
        if rv.level >= ru.level:
            ru.up.add(rv)
        else:
            slot = ru.down.get(rv.level)
            if slot is None:
                ru.down[rv.level] = {rv}
            else:
                slot.add(rv)
        if ru.level >= rv.level:
            rv.up.add(ru)
        else:
            slot = rv.down.get(ru.level)
            if slot is None:
                rv.down[ru.level] = {ru}
            else:
                slot.add(ru)
        ru.deg += 1
        rv.deg += 1

    @staticmethod
    def _unlink_records(ru: _VertexRecord, rv: _VertexRecord) -> None:
        """Remove the edge (ru, rv) from both records' U/L structures."""
        if rv.level >= ru.level:
            ru.up.discard(rv)
        else:
            bucket = ru.down[rv.level]
            bucket.discard(rv)
            if not bucket:
                del ru.down[rv.level]
        if ru.level >= rv.level:
            rv.up.discard(ru)
        else:
            bucket = rv.down[ru.level]
            bucket.discard(ru)
            if not bucket:
                del rv.down[ru.level]
        ru.deg -= 1
        rv.deg -= 1

    def _insert_edge_struct(
        self, u: int, v: int
    ) -> tuple[_VertexRecord, _VertexRecord]:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if self.has_edge(u, v):
            raise ValueError(f"duplicate edge ({u},{v})")
        ru, rv = self._record(u), self._record(v)
        self._link_records(ru, rv)
        self._m += 1
        return ru, rv

    def _delete_edge_struct(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        ru, rv = self._vertices[u], self._vertices[v]
        self._unlink_records(ru, rv)
        self._m -= 1

    # ------------------------------------------------------------------
    # Orientation upkeep (Algorithm 5)
    # ------------------------------------------------------------------

    def _finish_orientation(self, batch: Batch, result: UpdateResult) -> None:
        tracker = self.tracker
        inserted = set(batch.insertions)
        tracker.add(
            work=max(1, len(self._touched) + len(inserted)), depth=self._mut_depth
        )
        for e in self._touched:
            if e in inserted or e not in self._orient:
                continue
            if not self.has_edge(*e):
                continue
            new_dir = self.orientation_of(*e)
            old_dir = self._orient[e]
            if new_dir != old_dir:
                result.flipped.append(old_dir)
                self._orient[e] = new_dir
        for e in inserted:
            d = self.orientation_of(*e)
            self._orient[e] = d
            result.oriented_insertions.append(d)
        self._touched = set()

    # ------------------------------------------------------------------
    # Rebuild (Section 5.9) and diagnostics
    # ------------------------------------------------------------------

    def _maybe_rebuild(self) -> None:
        # Section 5.9: rebuild once the live vertex count outgrows the
        # sizing hint, or after n/2 vertex updates have accumulated (the
        # rebuild cost amortizes to O(log² n) per vertex update).
        # The hint is sized at twice the vertex count of the last rebuild,
        # so n_hint // 4 approximates the paper's "n/2 vertex updates".
        if (
            self.num_vertices <= self.n_hint
            and self._vertex_updates <= max(self.n_hint // 4, 8)
        ):
            return
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("plds.rebuilds")
        tracer = _tracing.ACTIVE
        if tracer is None:
            self._rebuild()
            return
        with tracer.span(
            "plds.rebuild",
            self.tracker,
            vertices=self.num_vertices,
            edges=self._m,
        ):
            self._rebuild()

    def _rebuild(self) -> None:
        edges = list(self.edges())
        vertices = list(self.vertices())
        # Resize to the live vertex count (growing or shrinking), so the
        # level count K tracks the current n as Section 5.9 requires.
        new_hint = max(2, 2 * len(vertices))
        self.tracker.add(
            work=max(1, len(edges) + len(vertices)),
            depth=log2_ceil(max(2, len(edges))) + 1,
        )
        self.__init__(  # noqa: PLC2801 - deliberate in-place re-init
            n_hint=new_hint,
            delta=self.delta,
            lam=self.lam,
            group_shrink=self.group_shrink,
            upper_coeff=self.upper_coeff,
            tracker=self.tracker,
            track_orientation=self.track_orientation,
            insertion_strategy=self.insertion_strategy,
            structure=self.structure,
        )
        for v in vertices:  # keep isolated vertices alive at level 0
            self._record(v)
        if edges:
            self.update(Batch(insertions=edges))
        # Set AFTER the replay update above, so the outer update() (when
        # the rebuild fired from _maybe_rebuild mid-batch) reports
        # last_moved=None rather than just the replay's movers.
        self._levels_reshaped = True

    # ------------------------------------------------------------------
    # Snapshots (persistence for long-running monitors)
    # ------------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-serializable snapshot of the full structure state.

        Levels fully determine the structure (the U/L partitions and the
        orientation are functions of the levels), so the snapshot stores
        parameters, per-vertex levels, and the edge list: the O(1)
        :meth:`snapshot_header` composed with the current level image
        and edge set by :meth:`compose_snapshot`.
        """
        return self.compose_snapshot(
            self.snapshot_header(),
            {v: lvl for v, lvl, _ in self._level_items()},
            self.edges(),
        )

    def snapshot_header(self) -> dict:
        """The O(1) parameter part of :meth:`to_snapshot`.

        A Section-5.9 rebuild re-sizes ``n_hint``, so a caller that
        composes a snapshot of an *earlier* state (the service's
        rollback) must take the header at that earlier moment.
        """
        return {
            "format": 1,
            "params": {
                "n_hint": self.n_hint,
                "delta": self.delta,
                "lam": self.lam,
                "group_shrink": self.group_shrink,
                "upper_coeff": self.upper_coeff,
                "track_orientation": self.track_orientation,
                "insertion_strategy": self.insertion_strategy,
                "structure": self.structure,
            },
        }

    def compose_snapshot(
        self,
        header: dict,
        levels: Mapping[int, int],
        edges: Iterable[tuple[int, int]],
    ) -> dict:
        """A :meth:`to_snapshot` dict from a header, a vertex -> level
        map, and canonical edges — whichever state they describe."""
        return {
            **header,
            "levels": sorted([v, lvl] for v, lvl in levels.items()),
            "edges": sorted(edges),
        }

    @classmethod
    def from_snapshot(
        cls, snapshot: dict, tracker: WorkDepthTracker | None = None
    ) -> "PLDS":
        """Reconstruct a PLDS from :meth:`to_snapshot` output.

        The levels are restored verbatim (no replay), so estimates,
        orientation, and invariants match the snapshotted instance
        exactly.  Raises ``ValueError`` if the snapshot is internally
        inconsistent (an edge referencing an unknown vertex, or a level
        out of range).
        """
        if snapshot.get("format") != 1:
            raise ValueError("unsupported snapshot format")
        plds = cls(tracker=tracker, **snapshot["params"])
        for v, level in snapshot["levels"]:
            if not 0 <= level < plds.num_levels:
                raise ValueError(f"level {level} of vertex {v} out of range")
            plds._restore_level(v, level)
        for u, v in snapshot["edges"]:
            if not plds._has_vertex(u) or not plds._has_vertex(v):
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            plds._insert_edge_struct(u, v)
        if plds.track_orientation:
            for e in plds.edges():
                plds._orient[e] = plds.orientation_of(*e)
        return plds

    def level_histogram(self) -> dict[int, int]:
        """Number of vertices per (non-empty) level."""
        hist: dict[int, int] = {}
        for rec in self._vertices.values():
            hist[rec.level] = hist.get(rec.level, 0) + 1
        return hist

    def group_histogram(self) -> dict[int, int]:
        """Number of vertices per (non-empty) group."""
        hist: dict[int, int] = {}
        for rec in self._vertices.values():
            g = self.group_number(rec.level)
            hist[g] = hist.get(g, 0) + 1
        return hist

    def stats(self) -> dict[str, float]:
        """Structure health snapshot: sizes, occupancy, cost so far.

        Useful for monitoring dashboards and debugging; everything here
        is O(n) to compute and side-effect free.
        """
        levels = [rec.level for rec in self._vertices.values()]
        return {
            "num_vertices": float(len(self._vertices)),
            "num_edges": float(self._m),
            "num_levels": float(self.num_levels),
            "levels_per_group": float(self.levels_per_group),
            "max_level_in_use": float(max(levels, default=0)),
            "mean_level": (sum(levels) / len(levels)) if levels else 0.0,
            "work": float(self.tracker.work),
            "depth": float(self.tracker.depth),
            "space_bytes": float(self.space_bytes()),
        }

    def check_invariants(self) -> list[str]:
        """Return human-readable descriptions of any invariant violations.

        Empty list means the structure satisfies Invariants 1 and 2 and its
        U/L bookkeeping is internally consistent.  Intended for tests.
        """
        problems: list[str] = []
        for v, rec in self._vertices.items():
            lvl = rec.level
            actual_deg = len(rec.up) + sum(len(s) for s in rec.down.values())
            if rec.deg != actual_deg:
                problems.append(
                    f"cached degree of v={v} is {rec.deg}, "
                    f"structures hold {actual_deg}"
                )
            if len(rec.up) > self.inv1_bound(lvl):
                problems.append(
                    f"Invariant 1 violated at v={v}: up={len(rec.up)} > "
                    f"{self.inv1_bound(lvl):.2f} (level {lvl})"
                )
            if lvl > 0 and rec.degree() > 0:
                up_star = len(rec.up) + len(rec.down.get(lvl - 1, ()))
                if up_star < self.inv2_threshold(lvl):
                    problems.append(
                        f"Invariant 2 violated at v={v}: up*={up_star} < "
                        f"{self.inv2_threshold(lvl):.2f} (level {lvl})"
                    )
            for wrec in rec.up:
                if wrec.level < lvl:
                    problems.append(f"U[{v}] holds {wrec.id} below level {lvl}")
            for j, bucket in rec.down.items():
                if j >= lvl:
                    problems.append(f"L_{v}[{j}] exists at/above level {lvl}")
                for wrec in bucket:
                    if wrec.level != j:
                        problems.append(
                            f"L_{v}[{j}] holds {wrec.id} at level "
                            f"{wrec.level}"
                        )
        return problems

    def space_bytes(self) -> int:
        """Rough byte count of the maintained structures (Section 6.8).

        Counts 8 bytes per stored vertex id / level slot / hash entry, the
        same bookkeeping granularity the paper's space experiments use.
        The randomized/deterministic variants keep a slot for *every*
        level below ℓ(v) (the O(n log² n) term); the space-efficient
        variant (Section 5.8) keeps a linked-list node only for non-empty
        levels, giving O(n + m).
        """
        total = 0
        for rec in self._vertices.values():
            total += 8  # level
            total += 8 * len(rec.up)
            if self.structure == "space_efficient":
                total += sum(16 + 8 * len(s) for s in rec.down.values())
            else:
                total += 8 * rec.level  # one L_v slot per lower level
                total += sum(8 * len(s) for s in rec.down.values())
        total += 24 * len(self._orient)
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PLDS(n={self.num_vertices}, m={self._m}, K={self.num_levels}, "
            f"delta={self.delta}, lam={self.lam}, shrink={self.group_shrink})"
        )
