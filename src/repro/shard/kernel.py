"""Shard-local PLDS cascade kernel with ghost-level replication.

A :class:`ShardKernel` is a :class:`~repro.core.plds.PLDS` that owns the
full ``_VertexRecord`` of every *local* vertex (the ones its
:class:`~repro.shard.partition.Partitioner` assigns to it) plus
read-mostly **ghost** records mirroring the remote endpoints of local
edges.  The structural invariant the cascade correctness rests on:

    every neighbor of a local vertex has a record on the shard
    (local or ghost), and a ghost's adjacency is restricted to the
    shard's local vertices (ghosts are never linked to ghosts).

Local up-degrees, up*-degrees and desire-level scans are therefore
*exact* given the current ghost levels; ghost levels lag their owners by
at most one message round.  The level-message boundary:

- :meth:`settle` runs the shard's own dirty/pending buckets to local
  quiescence (the monolithic level steps :meth:`PLDS._rise_level` /
  :meth:`PLDS._desaturate_level` at the shard's minimum level,
  repeated) and returns one **move event** ``(v, new_level)`` per
  local vertex that moved, at its final level; the level steps never
  mark a ghost record;
- :meth:`apply_moves` replays remote events onto the local ghost
  replicas via the record-based primitives ``_move_up_to`` /
  ``_move_down`` — whose returned newly-marked / weakened records are
  all local (ghost adjacency is local-only) and feed the shard's own
  dirty/pending state.  Ghosts are never adjacent to ghosts, so the
  replays are independent moves, metered as one parallel step.

The coordinator's :meth:`~repro.shard.coordinator.Coordinator.cascade_rounds`
alternates settle and apply until global quiescence.  Rise is a monotone
least-fixpoint iteration (a rise never overshoots the least fixpoint, and
still-violating vertices are re-marked at event-apply time) and
desaturation its greatest-fixpoint dual with move-time revalidation, so
neither the shard count nor the order in which shards settle changes the
final levels, and hence the coreness estimates.

Edge-count discipline: an edge is *held* by both endpoint owners but
*counted* (``_m``) only by the owner of its min endpoint, so the
inherited :meth:`PLDS.edges` (which yields ``(v, w)`` for local ``v``
with ``v < w``) enumerates exactly the shard's counted edges and the
union over shards is the global edge set, duplicate-free.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable

from ..core.plds import PLDS, _merge_marks, _VertexRecord
from ..parallel.engine import WorkDepthTracker

__all__ = ["ShardKernel"]

#: A level-move event: (vertex, final level in the round).
MoveEvent = tuple[int, int]


class ShardKernel(PLDS):
    """One shard's PLDS: local records + ghost replicas + cascade state.

    Parameters beyond the PLDS ones:

    shard_id:
        This shard's index (label for spans/metrics/diagnostics).
    owns:
        Predicate ``vertex id -> bool`` telling local from remote
        (derived from the coordinator's partitioner).

    The kernel never runs :meth:`PLDS.update` — batches arrive
    pre-validated from the coordinator as :meth:`apply_insertions` /
    :meth:`apply_deletions` items, and rebalancing is driven round-wise
    by the coordinator.  Orientation tracking is unsupported (ghost
    replicas would need their own touched-edge exchange), and the
    Section-5.9 rebuild is the *coordinator's* job: the local trigger is
    disabled because the level-threshold tables must be sized by the
    global ``n_hint`` on every shard for shard-count-independent
    rise/desaturate decisions.
    """

    def __init__(
        self,
        shard_id: int,
        owns: Callable[[int], bool],
        n_hint: int,
        delta: float = 0.4,
        lam: float = 3.0,
        group_shrink: int = 1,
        upper_coeff: float | None = None,
        tracker: WorkDepthTracker | None = None,
        insertion_strategy: str = "levelwise",
        structure: str = "randomized",
    ) -> None:
        super().__init__(
            n_hint,
            delta=delta,
            lam=lam,
            group_shrink=group_shrink,
            upper_coeff=upper_coeff,
            tracker=tracker,
            track_orientation=False,
            insertion_strategy=insertion_strategy,
            structure=structure,
        )
        self.shard_id = shard_id
        self.owns = owns
        #: ghost replicas of remote neighbors, keyed by vertex id.
        self._ghosts: dict[int, _VertexRecord] = {}
        #: rise state: level -> sorted-unique ids of the local vertices
        #: marked dirty there (desaturate state is PLDS's own).
        self._dirty: dict[int, list[int]] = {}
        #: local endpoint records touched by deletions, awaiting a
        #: desire scan.
        self._affected: set[_VertexRecord] = set()

    # ------------------------------------------------------------------
    # Structural apply steps (scatter phase)
    # ------------------------------------------------------------------

    def _materialize(
        self,
        v: int,
        levels: dict[int, int],
        new_ghosts: list[int],
    ) -> _VertexRecord:
        rec = self._vertices.get(v)
        if rec is None:
            rec = self._ghosts.get(v)
        if rec is not None:
            return rec
        if self.owns(v):
            return self._record(v)
        rec = _VertexRecord(v)
        rec.level = levels[v]
        rec.ghost = True
        self._ghosts[v] = rec
        new_ghosts.append(v)
        return rec

    def apply_insertions(
        self,
        items: Iterable[tuple[int, int, bool]],
        levels: dict[int, int],
    ) -> list[int]:
        """Link the routed edges ``(u, v, counted)`` into this shard.

        ``levels`` maps every endpoint to its owner's current level, so
        remote endpoints materialize as up-to-date ghosts.  Local
        endpoints are marked dirty (Algorithm 2 seeds); ghost endpoints
        are the owning shard's problem.  Returns the ids of newly
        created ghosts (for the coordinator's ghost directory).
        """
        items = list(items)
        self.tracker.add(work=2 * len(items), depth=self._mut_depth)
        new_ghosts: list[int] = []
        marks = self._marks
        for u, v, counted in items:
            ru = self._materialize(u, levels, new_ghosts)
            rv = self._materialize(v, levels, new_ghosts)
            self._link_records(ru, rv)
            if counted:
                self._m += 1
            for r in (ru, rv):
                if not r.ghost:
                    marks[r.level].append(r.id)
        _merge_marks(self._dirty, marks)
        return new_ghosts

    def apply_deletions(
        self, items: Iterable[tuple[int, int, bool]]
    ) -> list[int]:
        """Unlink the routed edges; queue local endpoints for desire scans.

        Ghost replicas whose mirrored degree drops to zero are evicted
        (no local vertex needs their level anymore); their ids are
        returned so the coordinator can prune the ghost directory
        *after* the step commits (rollback safety).
        """
        items = list(items)
        self.tracker.add(work=2 * len(items), depth=self._mut_depth)
        dropped: list[int] = []
        affected = self._affected
        for u, v, counted in items:
            ru = self._vertices.get(u) or self._ghosts[u]
            rv = self._vertices.get(v) or self._ghosts[v]
            self._unlink_records(ru, rv)
            if counted:
                self._m -= 1
            for r in (ru, rv):
                if r.ghost:
                    if r.deg == 0:
                        del self._ghosts[r.id]
                        dropped.append(r.id)
                else:
                    affected.add(r)
        return dropped

    def consider_affected(self) -> None:
        """Desire-scan every local endpoint the deletion batch touched
        (Algorithm 3's prologue, :meth:`PLDS._consider_all`, restricted
        to this shard)."""
        self._consider_all(self._affected)
        self._affected.clear()

    # ------------------------------------------------------------------
    # Cascade steps (round phase)
    # ------------------------------------------------------------------

    def min_dirty_level(self) -> int | None:
        return min(self._dirty) if self._dirty else None

    def min_pending_level(self) -> int | None:
        return min(self._pending) if self._pending else None

    def settle(self, rise: bool) -> dict[int, int]:
        """Run this shard's rise (or desaturate) buckets to local
        quiescence; return ``vertex -> final level`` for every local
        vertex that moved.

        Each step is the monolithic level step (:meth:`PLDS._rise_level`
        or :meth:`PLDS._desaturate_level`) at the shard's own minimum
        dirty (pending) level, without the monolithic loop's per-level
        spans, fault hits and metrics.  A vertex may move several times
        before its move is reported — once, at its final level.  Ghost
        levels stay as they were at the last exchange until
        :meth:`apply_moves`; the level steps leave marking a ghost to
        its owner, which sees this shard's move event there.
        """
        tracker = self.tracker
        moved: set[int] = set()
        if rise:
            dirty = self._dirty
            while dirty:
                tracker.add(work=1, depth=1)  # the level-loop iteration
                level, candidates = self._pop_rise_level(dirty)
                self._rise_level(dirty, level, candidates, moved)
        else:
            pending = self._pending
            while pending:
                tracker.add(work=1, depth=1)
                self._desaturate_level(min(pending), moved)
        vertices = self._vertices
        return {v: vertices[v].level for v in moved}

    def apply_moves(self, events: list[MoveEvent]) -> None:
        """Replay remote move events onto this shard's ghost replicas.

        ``events`` holds at most one event per ghost, sorted by vertex.
        Upward events re-mark local neighbors that now violate
        Invariant 1; downward events re-consider local neighbors whose
        ``up*`` shrank.  All fallout is local by construction (ghost
        adjacency holds local records only), and no ghost is adjacent to
        another, so the replays are independent moves: one
        ``flat_parfor`` (sum of the works, max of the depths).
        """
        ghosts = self._ghosts
        desire = self._desire
        consider = self._consider
        rise_marks: defaultdict[int, list[int]] = defaultdict(list)

        def replay(event: MoveEvent) -> None:
            rec = ghosts[event[0]]
            new = event[1]
            if new > rec.level:
                for wrec in self._move_up_to(rec, new):
                    rise_marks[wrec.level].append(wrec.id)
            else:
                for wrec in self._move_down(rec, new):
                    desire.pop(wrec.id, None)
                    consider(wrec)

        self.tracker.flat_parfor(events, replay)
        _merge_marks(self._dirty, rise_marks)
        _merge_marks(self._pending, self._marks)

    # ------------------------------------------------------------------
    # Shard-local rollback (the ``shard.apply`` fault boundary)
    # ------------------------------------------------------------------

    def capture_state(self) -> dict:
        """Cheap structural snapshot for shard-local rollback.

        Levels + edge pairs fully determine the U/L partitions, exactly
        as in :meth:`PLDS.to_snapshot`; ghost levels and the counted-edge
        total ride along so a restore is bit-identical.  Cascade state
        (dirty/desire/pending/affected) is *not* captured: a shard step
        is only retried from the quiescent pre-scatter state, where all
        of it is empty.
        """
        pairs: list[tuple[int, int]] = []
        local = self._vertices
        for v, rec in local.items():
            for w in rec.neighbors():
                if w in local:
                    if v < w:
                        pairs.append((v, w))
                else:
                    pairs.append((v, w))
        return {
            "levels": {v: rec.level for v, rec in local.items()},
            "ghosts": {v: rec.level for v, rec in self._ghosts.items()},
            "pairs": pairs,
            "m": self._m,
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild this shard's structures from :meth:`capture_state`."""
        self._vertices = {}
        self._ghosts = {}
        for v, lvl in state["levels"].items():
            rec = self._record(v)
            rec.level = lvl
        for v, lvl in state["ghosts"].items():
            rec = _VertexRecord(v)
            rec.level = lvl
            rec.ghost = True
            self._ghosts[v] = rec
        for u, w in state["pairs"]:
            ru = self._vertices.get(u) or self._ghosts[u]
            rw = self._vertices.get(w) or self._ghosts[w]
            self._link_records(ru, rw)
        self._m = state["m"]
        self._dirty = {}
        self._desire = {}
        self._pending = {}
        self._marks.clear()
        self._affected = set()

    # ------------------------------------------------------------------
    # Overrides: ghost-aware queries, coordinator-owned rebuild
    # ------------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        ru = self._vertices.get(u) or self._ghosts.get(u)
        rv = self._vertices.get(v) or self._ghosts.get(v)
        if ru is None or rv is None:
            return False
        if rv.level >= ru.level:
            return rv in ru.up
        return rv in ru.down.get(rv.level, ())

    def _maybe_rebuild(self) -> None:
        # Rebuilds are the Coordinator's: the trigger must read the
        # *global* vertex count and every shard must re-size to the
        # same global n_hint, or the per-level threshold tables diverge
        # from the monolithic structure and parity breaks.
        return

    def space_bytes(self) -> int:
        """Local structures (inherited accounting) + ghost mirrors."""
        total = super().space_bytes()
        for rec in self._ghosts.values():
            total += 8  # mirrored level
            total += 8 * len(rec.up)
            if self.structure == "space_efficient":
                total += sum(16 + 8 * len(s) for s in rec.down.values())
            else:
                total += 8 * rec.level
                total += sum(8 * len(s) for s in rec.down.values())
        return total

    def check_invariants(self) -> list[str]:
        """Inherited per-local-vertex checks + ghost bookkeeping checks.

        (Cross-shard mirror/directory consistency is the coordinator's
        check; this one sees a single shard.)
        """
        problems = super().check_invariants()
        for v, rec in self._ghosts.items():
            if not rec.ghost:
                problems.append(f"ghost record {v} lost its ghost flag")
            if self.owns(v):
                problems.append(f"vertex {v} is a ghost on its owner shard")
            if v in self._vertices:
                problems.append(f"vertex {v} is both local and ghost")
            if rec.deg == 0:
                problems.append(f"ghost {v} has degree 0 (should be evicted)")
            for w in rec.neighbors():
                if w not in self._vertices:
                    problems.append(
                        f"ghost {v} adjacent to non-local vertex {w}"
                    )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardKernel(shard={self.shard_id}, local={len(self._vertices)}, "
            f"ghosts={len(self._ghosts)}, m={self._m})"
        )
