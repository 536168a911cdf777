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
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Collection, Iterable, Iterator, Mapping

from .. import faults as _faults
from ..graphs.dynamic_graph import canonical_edge
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..graphs.streams import Batch, check_batch
from ..parallel.engine import WorkDepthTracker
from ..parallel.primitives import log2_ceil
from .query import QueryView

__all__ = ["PLDS", "UpdateResult", "DirectedEdge"]

#: Depth charged per batched hash-table mutation — stands in for O(log* n),
#: which is <= 5 for any n < 2^65536.
LOG_STAR_DEPTH = 5

#: A directed edge (tail, head): oriented tail -> head.
DirectedEdge = tuple[int, int]


def _merge_marks(
    buckets: dict[int, list[int]], marks: defaultdict[int, list[int]]
) -> None:
    """Merge buffered cascade marks into the sorted-unique buckets.

    The rebalancing cascades keep every dirty/pending bucket as a sorted
    list of vertex ids, so the mover lists handed to ``flat_parfor`` are
    already in canonical order without a per-round re-sort.  Marks are
    buffered per level while a round runs (nothing reads the buckets
    until the round ends) and merged here with one sort per touched
    level, instead of a bisect-insert (an O(bucket) list shift) per
    mark.  ``marks`` is drained.
    """
    for level, ids in marks.items():
        bucket = buckets.get(level)
        if bucket is not None:
            ids.extend(bucket)
        buckets[level] = sorted(set(ids))
    marks.clear()


def _linked(ru: "_VertexRecord", rv: "_VertexRecord") -> bool:
    """Whether the edge (ru, rv) is stored: look where the level rule
    places ``rv`` among ``ru``'s neighbors."""
    if rv.level >= ru.level:
        return rv in ru.up
    return rv in ru.down.get(rv.level, ())


_record_id = attrgetter("id")


def _is_sorted_unique(items: list[int]) -> bool:
    return all(items[i] < items[i + 1] for i in range(len(items) - 1))


class _LevelOverflow(IndexError):
    """An insertion cascade must lift a vertex past the top level.

    That needs a degree above the top level's Invariant-1 bound, at
    least ``upper_coeff·(1+δ)·n_hint``, so with the paper's coefficients
    only a batch that outgrew the sizing hint (and would rebuild anyway)
    raises it.  Every engine answers with the same grown rebuild, on
    ``max(2, 2·|V|, 2·n_hint)``: :meth:`PLDS._rebalance`,
    ``LDS._rebalance`` and, for the shard kernels,
    ``Coordinator._apply_batch``.
    """


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
    monolithic PLDS never sets it; the move primitives treat ghost and
    local records identically, and the level steps never mark a ghost
    (its owner marks it off the shard's move event).
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


#: Endpoint records of a batch's edges, as resolved by the batch check
#: (:meth:`PLDS._lookup_edges`); ``None`` for a vertex not yet stored.
_Pairs = list[tuple[_VertexRecord | None, _VertexRecord | None]]


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
        #: Algorithm 3's state: vertex -> stored desire level, and level
        #: -> sorted-unique ids pending there.  A completed batch leaves
        #: both empty.
        self._desire: dict[int, int] = {}
        self._pending: dict[int, list[int]] = {}
        #: cascade marks buffered while a parfor runs; every level step
        #: drains them into its buckets (see :func:`_merge_marks`).
        self._marks: defaultdict[int, list[int]] = defaultdict(list)

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
        return ru is not None and rv is not None and _linked(ru, rv)

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

    def _records(self) -> Iterable[_VertexRecord]:
        return self._vertices.values()

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
            if v not in self._vertices:
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
            if v not in self._vertices:
                continue
            for w in self.neighbors(v):
                e = canonical_edge(v, w)
                if e[0] in vs and e[1] in vs and e[0] != v:
                    continue  # count each intra-set edge once
                dels.append(e)
        result = self.update(Batch(deletions=dels))
        for v in vs:
            if self._vertices.pop(v, None) is not None:
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

        The batch is checked up front against the Section-8 contract
        (:func:`repro.graphs.streams.check_batch`), so an invalid batch
        raises ``ValueError`` *before* any mutation; use
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
        inserted, deleted, ins_pairs, del_pairs = self._validate_batch(batch)
        result = UpdateResult()
        self._touched = set()
        track = self.track_orientation
        if track:
            # Pre-batch orientations of deleted edges (Algorithm 5:
            # deletions report the orientation *before* the batch).
            orient = self._orient
            for e in deleted:
                d = orient.pop(e, None)
                result.oriented_deletions.append(
                    d if d is not None else self.orientation_of(*e)
                )
        else:
            # Only orientation upkeep reads the canonical keys; free them
            # before the cascades allocate (the initial bulk load is one
            # batch of every edge).
            inserted.clear()
            deleted.clear()

        result.moved_vertices = self._rebalance(batch, ins_pairs, del_pairs)
        if track:
            if self._orient is not orient:
                # A mid-batch rebuild replaced H, and its replay oriented
                # every live edge, this batch's deletions included.
                for e in deleted:
                    self._orient.pop(e, None)
            self._finish_orientation(inserted, result)
        self._maybe_rebuild()
        return result

    def _rebalance(
        self, batch: Batch, ins_pairs: _Pairs | None, del_pairs: _Pairs | None
    ) -> set[int]:
        """Apply a validated batch to the structure; return the moved
        vertices.  Insertions first (Algorithm 2), then deletions
        (Algorithm 3), each from the endpoint records the check
        resolved (:meth:`_lookup_edges`)."""
        moved: set[int] = set()
        if batch.insertions:
            try:
                self._rebalance_insertions(batch.insertions, ins_pairs, moved)
            except _LevelOverflow:
                # Every overflow point leaves each record's U and L
                # holding exactly its neighbors, which is all a rebuild
                # reads: re-level everything on a larger table.  The
                # rebuild replaces every record, so the deletions'
                # pairs are stale: resolve them again.
                self._maybe_rebuild(2 * self.n_hint)
                del_pairs = None
        if batch.deletions:
            self._rebalance_deletions(batch.deletions, del_pairs, moved)
        return moved

    def insert_edges(self, edges: Iterable[tuple[int, int]]) -> UpdateResult:
        """Convenience wrapper: one insertion-only batch."""
        return self.update(Batch(insertions=list(edges)))

    def _validate_batch(
        self, batch: Batch
    ) -> tuple[dict, dict, _Pairs | None, _Pairs | None]:
        """Check the batch contract before mutating anything, charged as
        one batched hash-table step.  Its membership step
        (:meth:`_lookup_edges`) is the batch's only edge lookup, so the
        structure edits that follow link and unlink from the record
        pairs it resolved.  Returns the canonical insertions and
        deletions in batch order, then their pairs."""
        self.tracker.add(work=max(1, len(batch)), depth=5)
        return check_batch(batch, self._lookup_edges)

    def _lookup_edges(
        self, edges: Iterable[tuple[int, int]]
    ) -> tuple[int, _Pairs | None]:
        """:func:`check_batch`'s membership step: how many of the
        canonical ``edges`` the structure holds, and each edge's
        ``(ru, rv)`` endpoint records (``None`` for a vertex not yet
        stored).  An edgeless structure answers "none present" at once
        and resolves nothing."""
        if not self._m:
            return 0, None
        get = self._vertices.get
        pairs: _Pairs = []
        append = pairs.append
        present = 0
        for u, v in edges:
            ru = get(u)
            rv = get(v)
            if ru is not None and rv is not None:
                # _linked(ru, rv), inlined.
                if rv.level >= ru.level:
                    if rv in ru.up:
                        present += 1
                elif rv in ru.down.get(rv.level, ()):
                    present += 1
            append((ru, rv))
        return present, pairs

    # ------------------------------------------------------------------
    # Algorithm 2: RebalanceInsertions
    # ------------------------------------------------------------------

    def _rebalance_insertions(
        self,
        insertions: list[tuple[int, int]],
        pairs: _Pairs | None,
        moved: set[int],
    ) -> None:
        tracker = self.tracker
        vertices = self._vertices
        # Link all edges into the structures (parallel hash inserts) from
        # the records the check resolved; only an endpoint that was not
        # yet stored is created here, in batch order.  Dirty buckets are
        # sorted-unique id lists (see :func:`_merge_marks`), so each
        # round's movers come out in canonical order for free.
        dirty: dict[int, list[int]] = {}
        marks = self._marks
        tracker.add(work=2 * len(insertions), depth=self._mut_depth)
        record = self._record
        link = self._link_records
        bulk = not self._m and self.insertion_strategy == "levelwise"
        self._m += len(insertions)
        if not bulk:
            if pairs is None:
                pairs = repeat((None, None))
            # The pair is in canonical order and may be reversed from
            # (u, v); linking is symmetric, and marks are re-sorted.
            for (u, v), (ru, rv) in zip(insertions, pairs):
                if ru is None or rv is None:
                    ru = record(u)
                    rv = record(v)
                # _link_records(ru, rv), inlined.
                lu = ru.level
                lv = rv.level
                if lv >= lu:
                    ru.up.add(rv)
                else:
                    slot = ru.down.get(lv)
                    if slot is None:
                        ru.down[lv] = {rv}
                    else:
                        slot.add(rv)
                if lu >= lv:
                    rv.up.add(ru)
                else:
                    slot = rv.down.get(lu)
                    if slot is None:
                        rv.down[lu] = {ru}
                    else:
                        slot.add(ru)
                ru.deg += 1
                rv.deg += 1
                marks[lu].append(ru.id)
                marks[lv].append(rv.id)
        else:
            # An edgeless levelwise start: if every endpoint sits at level
            # 0, the batch is a bulk load and :meth:`_bulk_peel` runs it.
            # Two level-0 records link into each other's U-sets.
            get = vertices.get
            for u, v in insertions:
                ru = get(u) or record(u)
                rv = get(v) or record(v)
                if ru.level or rv.level:
                    bulk = False
                    link(ru, rv)
                else:
                    ru.up.add(rv)
                    rv.up.add(ru)
                    ru.deg += 1
                    rv.deg += 1
            if bulk:
                self._bulk_peel(insertions, moved)
                return
            for u, v in insertions:
                marks[vertices[u].level].append(u)
                marks[vertices[v].level].append(v)
        _merge_marks(dirty, marks)
        self._rise(dirty, moved)

    def _rise(self, dirty: dict[int, list[int]], moved: set[int]) -> None:
        """Algorithm 2's level loop over the linked batch's ``dirty``
        buckets (level -> sorted-unique ids of marked vertices): each
        level's fault hit, span and metric samples around one
        :meth:`_rise_level` step."""
        tracker = self.tracker
        fault_plan = _faults.ACTIVE
        tracer = _tracing.ACTIVE
        mreg = _metrics.ACTIVE

        # Process levels bottom-up; Lemma 5.5 guarantees each level is
        # visited at most once (marks only propagate upward, so min(dirty)
        # is non-decreasing across iterations).
        while dirty:
            if fault_plan is not None:
                fault_plan.hit("plds.rise")
            level, candidates = self._pop_rise_level(dirty)
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
            try:
                movers = self._rise_level(dirty, level, candidates, moved)
            except _LevelOverflow:
                if span is not None:
                    tracer.end(span)
                raise
            if span is not None:
                if movers:
                    span.attrs["movers"] = movers
                tracer.end(span)

    def _pop_rise_level(
        self, dirty: dict[int, list[int]]
    ) -> tuple[int, list[int]]:
        """Pop the lowest dirty level and its candidates.

        Levelwise, a candidate that violates Invariant 1 at the top level
        would rise out of the table: raise :class:`_LevelOverflow` here,
        before the level is traced or charged, as :meth:`_bulk_peel`
        does.  (The jump strategy raises from :meth:`_up_desire_level`.)
        """
        level = min(dirty)
        candidates = dirty.pop(level)
        if (
            level == self.num_levels - 1
            and self.insertion_strategy == "levelwise"
        ):
            bound = self._inv1_bound_int[level]
            vertices = self._vertices
            if any(
                len(rec.up) > bound
                for v in candidates
                if (rec := vertices[v]).level == level
            ):
                raise _LevelOverflow  # a mover would leave the table
        return level, candidates

    def _rise_level(
        self,
        dirty: dict[int, list[int]],
        level: int,
        candidates: list[int],
        moved: set[int],
    ) -> int:
        """One Algorithm-2 level iteration: lift the ``candidates`` that
        violate Invariant 1 at ``level``, add them to ``moved``, and mark
        into ``dirty`` the vertices that violate it now.

        The monolithic loop (:meth:`_rise`) and the shard kernels'
        settle both take this step.  Records flagged ``ghost`` (a
        shard's replicas of remote vertices) are never marked: their
        owner marks them when it replays the move event.  Returns the
        number of jump movers, for the level's span (the levelwise step
        reports none).
        """
        vertices = self._vertices
        bounds = self._inv1_bound_int
        bound = bounds[level]
        if self.insertion_strategy == "jump":
            movers = [
                v
                for v in candidates
                if (rec := vertices[v]).level == level and len(rec.up) > bound
            ]
            if not movers:
                return 0
            marks = self._marks
            move_up_to = self._move_up_to
            up_desire_level = self._up_desire_level

            def rise(v: int) -> None:
                rec = vertices[v]
                newly_marked = move_up_to(rec, up_desire_level(rec))
                moved.add(v)
                if len(rec.up) > bounds[rec.level]:
                    newly_marked.append(rec)
                for wrec in newly_marked:
                    if not wrec.ghost:
                        marks[wrec.level].append(wrec.id)

            # The bucket is already sorted-unique, so the filtered mover
            # list is in canonical order without a re-sort.
            if __debug__:
                assert _is_sorted_unique(movers)
            self.tracker.flat_parfor(movers, rise)
            _merge_marks(dirty, marks)
            return len(movers)
        # Levelwise: :meth:`_move_up_to` one level up, inlined with
        # aggregate charging.  Each rise would charge (|U[v]| or 1,
        # mut_depth) into its own flat_parfor branch; the fold into the
        # enclosing frame is (sum of the works, mut_depth), charged once
        # below.  All movers rise exactly one level, and every vertex
        # they newly mark sits exactly at ``level + 1``, so the dirty
        # bucket is updated in bulk too.
        target = level + 1
        if target == self.num_levels:
            return 0  # no violator here, or _pop_rise_level had raised
        bound_t = bounds[target]
        # A neighbor that already violated Invariant 1 at ``target``
        # before this level iteration is already in some dirty bucket
        # (edge inserts mark both endpoints; every rise re-marks the
        # riser while it still violates), so a riser only needs to
        # mark w on the exact bound crossing — later redundant marks
        # would be deduplicated by the dirty set anyway.
        crossing = bound_t + 1
        track = self.track_orientation
        touched = self._touched
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
                        if len(wup) == crossing and not wrec.ghost:
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
            if track:
                # Orientation can flip only on the edges to the
                # neighbors left at ``level`` and those now level with v.
                for wrec in stay or ():
                    w = wrec.id
                    touched.add((v, w) if v <= w else (w, v))
                for wrec in up:
                    if wrec.level == target:
                        w = wrec.id
                        touched.add((v, w) if v <= w else (w, v))
            if len(up) > bound_t:
                marked_append(v)
        if not total_work:
            return 0  # no mover survived the filter at this level
        self.tracker.add(total_work, self._mut_depth)
        if marked_next:
            # Within a level iteration every vertex is marked at most
            # once (see the order-invariance note above), so one sort
            # yields the bucket's canonical sorted-unique form.
            bucket = dirty.get(target)
            if bucket is None:
                marked_next.sort()
                dirty[target] = marked_next
            else:
                dirty[target] = sorted(set(marked_next).union(bucket))
        return 0

    def _bulk_peel(
        self, insertions: list[tuple[int, int]], moved: set[int]
    ) -> None:
        """Algorithm 2 from an edgeless start, as one level-synchronous peel.

        Every endpoint starts at level 0 with all its neighbors in U, so
        the level loop ends at the least fixpoint of Invariant 1: with
        S_0 the endpoints, level j keeps each v in S_j with
        ``deg_{S_j}(v) <= bound(j)`` and the rest form S_{j+1}.  The
        loop's movers at level j are exactly S_{j+1}, each with
        ``|U[v]| = deg_{S_j}(v)``, so this emits the loop's charges and
        events per popped level: level 0 always, level i >= 1 iff
        S_{i+1} is non-empty, each with one ``plds.rise`` fault hit, span
        and metric sample (``queue`` = |S_0| at level 0, |S_{i+1}|
        above), the (1, 1) iteration charge and, with movers,
        ``(sum of deg_{S_i} over S_{i+1}, mut_depth)``.

        O(n + m + K) instead of the loop's sum of ``deg(v)·ℓ(v)``: each
        vertex waits in the bucket of the first level whose bound admits
        its live degree, and moves bucket only when a decrement (one per
        edge) crosses a bound.  A record splits its neighbors into U/L
        once, as it settles.  ``_touched`` gets the loop's set: every
        inserted edge with an endpoint in S_1.
        """
        tracker = self.tracker
        bounds = self._inv1_bound_int
        num_levels = self.num_levels
        mut_depth = self._mut_depth
        fault_plan = _faults.ACTIVE
        tracer = _tracing.ACTIVE
        mreg = _metrics.ACTIVE
        # S_0 with degrees: the structure held no edges, so the endpoints
        # are exactly the records of non-zero degree.
        live = {rec: rec.deg for rec in self._vertices.values() if rec.deg}
        live_get = live.get
        queue = len(live)
        # due[d]: the first level whose bound admits degree d (num_levels
        # when none does); bucket[due[d]] holds the records waiting there.
        due: list[int] = []
        level = 0
        for d in range(max(live.values()) + 1):
            while level < num_levels and bounds[level] < d:
                level += 1
            due.append(level)
        bucket: list[list[_VertexRecord]] = [[] for _ in range(num_levels + 1)]
        for rec, d in live.items():
            bucket[due[d]].append(rec)
        total = 2 * len(insertions)  # sum of the live degrees
        span = None
        for level in range(num_levels):
            stay: list[_VertexRecord] = []
            for rec in bucket[level]:  # stale entries are already settled
                d = live.pop(rec, None)
                if d is not None:
                    stay.append(rec)
                    total -= d
            # ``live`` is now S_{level+1}, and ``total`` its degrees in S_level.
            if live or not level:
                if span is not None:
                    tracer.end(span)
                if fault_plan is not None:
                    fault_plan.hit("plds.rise")
                if live and level == num_levels - 1:
                    # By now the loop has moved every vertex of S_1.
                    moved.update(rec.id for rec in stay)
                    moved.update(rec.id for rec in live)
                    raise _LevelOverflow
                span = (
                    tracer.begin(
                        "plds.rise",
                        tracker,
                        level=level,
                        queue=len(live) if level else queue,
                    )
                    if tracer is not None
                    else None
                )
                if mreg is not None:
                    mreg.inc("plds.rise_levels")
                    mreg.observe(
                        "plds.cascade_queue",
                        len(live) if level else queue,
                        phase="rise",
                    )
                tracker.add(work=1, depth=1)
                if live:
                    tracker.add(total, mut_depth)
            if level:
                for rec in stay:
                    rec.level = level
                    moved.add(rec.id)
            nxt = level + 1
            for rec in stay:
                below = None
                for wrec in rec.up:
                    d = live_get(wrec)
                    if d is None:
                        # Settled: at this level it stays in U, lower
                        # it moves to L.
                        if wrec.level < level:
                            if below is None:
                                below = [wrec]
                            else:
                                below.append(wrec)
                        continue
                    d -= 1
                    live[wrec] = d
                    total -= 1
                    now = due[d]
                    if now != due[d + 1] and due[d + 1] > nxt:
                        # The decrement crossed a bound: wait earlier.
                        bucket[now if now > nxt else nxt].append(wrec)
                if below is not None:
                    rec.up.difference_update(below)
                    down = rec.down
                    for wrec in below:
                        slot = down.get(wrec.level)
                        if slot is None:
                            down[wrec.level] = {wrec}
                        else:
                            slot.add(wrec)
            if not live:
                break
        if span is not None:
            tracer.end(span)
        if self.track_orientation:
            vertices = self._vertices
            touched = self._touched
            for u, v in insertions:
                if vertices[u].level or vertices[v].level:
                    touched.add((u, v) if u <= v else (v, u))

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
        for j in range(old + 1, self.num_levels):
            dropped = counts_get(j - 1)
            if dropped:
                cnt -= dropped
            if cnt <= bounds[j]:
                break
        else:
            raise _LevelOverflow  # no level in the table admits v
        self.tracker.add(
            work=max(1, len(rec.up) + (j - old)),
            depth=self._levels_depth,
        )
        return j

    # ------------------------------------------------------------------
    # Algorithm 3: RebalanceDeletions
    # ------------------------------------------------------------------

    def _rebalance_deletions(
        self,
        deletions: list[tuple[int, int]],
        pairs: _Pairs | None,
        moved: set[int],
    ) -> None:
        tracker = self.tracker
        tracker.add(work=2 * len(deletions), depth=self._mut_depth)
        vertices = self._vertices
        unlink = self._unlink_records
        affected: set[_VertexRecord] = set()
        if pairs is None:
            pairs = [(vertices[u], vertices[v]) for u, v in deletions]
        for ru, rv in pairs:  # validated: unlink without a re-check
            unlink(ru, rv)
            affected.add(ru)
            affected.add(rv)
        self._m -= len(deletions)
        self._consider_all(affected)

        # Process levels bottom-up; each vertex moves exactly once
        # (Lemma 5.6: once level i is done, no vertex desires <= i).
        pending = self._pending
        fault_plan = _faults.ACTIVE
        tracer = _tracing.ACTIVE
        mreg = _metrics.ACTIVE
        while pending:
            if fault_plan is not None:
                fault_plan.hit("plds.desaturate")
            level = min(pending)
            queue = len(pending[level])
            span = (
                tracer.begin(
                    "plds.desaturate", tracker, level=level, queue=queue
                )
                if tracer is not None
                else None
            )
            if mreg is not None:
                mreg.inc("plds.desaturate_levels")
                mreg.observe("plds.cascade_queue", queue, phase="desaturate")
            tracker.add(work=1, depth=1)  # the level-loop iteration itself
            movers = self._desaturate_level(level, moved)
            if span is not None:
                if movers:
                    span.attrs["movers"] = movers
                tracer.end(span)

    def _consider_all(self, affected: Collection[_VertexRecord]) -> None:
        """Algorithm 3's prologue: :meth:`_consider` every ``affected``
        record, as one parfor (none when nothing was affected).

        Only Invariant-2 violators charge anything in ``_consider``, so a
        parfor over them alone, in id order, keeps the summed work, the
        max depth and the hook counts of one over every affected record.
        """
        if not affected:
            return
        thresholds = self._inv2_thresh_int
        violators: list[_VertexRecord] = []
        for rec in affected:
            lvl = rec.level
            if lvl:
                below = rec.down.get(lvl - 1)
                if len(rec.up) + (len(below) if below else 0) < thresholds[lvl]:
                    violators.append(rec)
        violators.sort(key=_record_id)
        self.tracker.flat_parfor(violators, self._consider)
        _merge_marks(self._pending, self._marks)

    def _consider(self, rec: _VertexRecord) -> None:
        """Algorithm 3's Invariant-2 check: a record whose ``up*`` is
        below its level's threshold stores its desire level and is
        marked pending there (merged by the caller's level step)."""
        lvl = rec.level
        if lvl == 0:
            return
        below = rec.down.get(lvl - 1)
        up_star = len(rec.up) + (len(below) if below else 0)
        if up_star < self._inv2_thresh_int[lvl]:
            dl = self._calculate_desire_level(rec)
            self._desire[rec.id] = dl
            self._marks[dl].append(rec.id)

    def _desaturate_level(self, level: int, moved: set[int]) -> int:
        """One Algorithm-3 level iteration: lower the vertices pending at
        ``level`` whose desire level is still ``level``, add them to
        ``moved``, and :meth:`_consider` the neighbors they weakened.

        The monolithic loop (:meth:`_rebalance_deletions`) and the shard
        kernels' settle both take this step.  A stored desire level can
        go stale in one way the weakened propagation cannot see: a
        neighbor later drops below the vertex's *target* level (while
        staying at/above its current level minus one).  So dl(v) is
        revalidated at move time, and a changed value re-enqueues the
        vertex (desire levels only decrease during a deletion phase, so
        this terminates).  In a shard this also absorbs ghost staleness:
        mirrored levels only over-estimate during a deletion phase, so a
        stored desire is only ever too high.  Weakened ``ghost`` records
        are left to their owner, which re-considers them when it replays
        the move event.  Returns the number of movers, for the level's
        span.
        """
        desire = self._desire
        vertices = self._vertices
        movers = [
            v
            for v in self._pending.pop(level)
            if desire.get(v) == level and vertices[v].level > level
        ]
        if not movers:
            return 0
        marks = self._marks
        consider = self._consider
        calculate = self._calculate_desire_level
        move_down = self._move_down

        def descend(v: int) -> None:
            rec = vertices[v]
            fresh = calculate(rec)
            if fresh != level:
                if fresh < rec.level:
                    desire[v] = fresh
                    marks[fresh].append(v)
                else:
                    desire.pop(v, None)
                return
            weakened = move_down(rec, level)
            moved.add(v)
            desire.pop(v, None)
            for wrec in weakened:
                if not wrec.ghost:
                    # Its stale pending entry is skipped lazily.
                    desire.pop(wrec.id, None)
                    consider(wrec)

        # Buckets are sorted-unique, so the filtered mover list is
        # already in canonical order — no per-round re-sort.
        if __debug__:
            assert _is_sorted_unique(movers)
        self.tracker.flat_parfor(movers, descend)
        _merge_marks(self._pending, marks)
        return len(movers)

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

    # ------------------------------------------------------------------
    # Orientation upkeep (Algorithm 5)
    # ------------------------------------------------------------------

    def _finish_orientation(
        self, inserted: dict[tuple[int, int], None], result: UpdateResult
    ) -> None:
        """Record flips among the touched edges and orient the batch's
        (canonical) insertions."""
        tracker = self.tracker
        tracker.add(
            work=max(1, len(self._touched) + len(inserted)), depth=self._mut_depth
        )
        for e in self._touched:
            # Every key of H is a live edge (deletions left it before the
            # cascades ran), so no edge lookup is needed here.
            if e in inserted or e not in self._orient:
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

    def _maybe_rebuild(self, min_hint: int = 0) -> None:
        # Section 5.9: rebuild once the live vertex count outgrows the
        # sizing hint, or after n/2 vertex updates have accumulated (the
        # rebuild cost amortizes to O(log² n) per vertex update).
        # The hint is sized at twice the vertex count of the last rebuild,
        # so n_hint // 4 approximates the paper's "n/2 vertex updates".
        # A non-zero ``min_hint`` forces a rebuild to at least that hint.
        if (
            not min_hint
            and self.num_vertices <= self.n_hint
            and self._vertex_updates <= max(self.n_hint // 4, 8)
        ):
            return
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("plds.rebuilds")
        tracer = _tracing.ACTIVE
        if tracer is None:
            self._rebuild(min_hint)
            return
        with tracer.span(
            "plds.rebuild",
            self.tracker,
            vertices=self.num_vertices,
            edges=self._m,
        ):
            self._rebuild(min_hint)

    def _rebuild(self, min_hint: int = 0) -> None:
        edges = list(self.edges())
        vertices = list(self.vertices())
        # Resize to the live vertex count (growing or shrinking), so the
        # level count K tracks the current n as Section 5.9 requires.
        new_hint = max(2, 2 * len(vertices), min_hint)
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
            {v: rec.level for v, rec in self._vertices.items()},
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
            plds._record(v).level = level
        vertices = plds._vertices
        for u, v in snapshot["edges"]:
            ru = vertices.get(u)
            rv = vertices.get(v)
            if ru is None or rv is None:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if _linked(ru, rv):
                raise ValueError(f"duplicate edge ({u},{v})")
            plds._link_records(ru, rv)
            plds._m += 1
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
