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
  quiescence (:meth:`rise_level` / :meth:`desaturate_level` at the
  shard's minimum level, repeated) and returns one **move event**
  ``(v, new_level)`` per local vertex that moved, at its final level;
  the marking a monolithic PLDS does in-line is skipped for ghost
  records;
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

from typing import Callable, Iterable

from ..core.plds import PLDS, _LevelOverflow, _VertexRecord
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
        #: rise state: level -> set of local records marked dirty there.
        self._dirty: dict[int, set[_VertexRecord]] = {}
        #: desaturate state: vertex -> stored desire level, and
        #: level -> pending local vertex ids (Algorithm 3's buckets).
        self._desire: dict[int, int] = {}
        self._pending: dict[int, set[int]] = {}
        #: local endpoints touched by deletions, awaiting a desire scan.
        self._affected: set[int] = set()

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
        dirty = self._dirty
        for u, v, counted in items:
            ru = self._materialize(u, levels, new_ghosts)
            rv = self._materialize(v, levels, new_ghosts)
            self._link_records(ru, rv)
            if counted:
                self._m += 1
            for r in (ru, rv):
                if r.ghost:
                    continue
                bucket = dirty.get(r.level)
                if bucket is None:
                    dirty[r.level] = {r}
                else:
                    bucket.add(r)
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
                    affected.add(r.id)
        return dropped

    def consider_affected(self) -> None:
        """Desire-scan every local endpoint the deletion batch touched
        (the ``flat_parfor(sorted(affected), consider)`` prologue of
        Algorithm 3, restricted to this shard)."""
        affected = sorted(self._affected)
        self._affected.clear()
        if not affected:
            return
        vertices = self._vertices
        self.tracker.flat_parfor(affected, lambda v: self._consider(vertices[v]))

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

        Each step processes the shard's own minimum dirty (pending)
        level, so a vertex may move several times before its move is
        reported — once, at its final level.  Ghost levels stay as they
        were at the last exchange until :meth:`apply_moves`.
        """
        moves: dict[int, int] = {}
        if rise:
            buckets, step = self._dirty, self.rise_level
        else:
            buckets, step = self._pending, self.desaturate_level
        while buckets:
            step(min(buckets), moves)
        return moves

    def rise_level(self, level: int, moves: dict[int, int]) -> None:
        """Process this shard's dirty bucket at ``level`` (one Algorithm-2
        level iteration), recording each mover's new level in ``moves``.

        Identical decisions to the monolithic loop, with one boundary
        difference: a ghost up-neighbor crossing its Invariant-1 bound
        is *not* marked here — its owner marks it when
        :meth:`apply_moves` replays this shard's move events there
        (``_move_up_to`` uses a ``>``-bound check, so the owner-side
        mark is violation-driven and robust to stale mirror counts).
        """
        tracker = self.tracker
        tracker.add(work=1, depth=1)  # the level-loop iteration itself
        candidates = self._dirty.pop(level, None)
        if not candidates:
            return
        bounds = self._inv1_bound_int
        bound = bounds[level]
        dirty = self._dirty

        if self.insertion_strategy == "jump":
            movers = {
                rec.id: rec
                for rec in candidates
                if rec.level == level and len(rec.up) > bound
            }
            if not movers:
                return

            def rise(v: int) -> None:
                rec = movers[v]
                newly_marked = self._move_up_to(
                    rec, self._up_desire_level(rec)
                )
                moves[v] = rec.level
                if len(rec.up) > bounds[rec.level]:
                    newly_marked.append(rec)
                for wrec in newly_marked:
                    if wrec.ghost:
                        continue  # the owner marks it off our move event
                    bucket = dirty.get(wrec.level)
                    if bucket is None:
                        dirty[wrec.level] = {wrec}
                    else:
                        bucket.add(wrec)

            tracker.flat_parfor(sorted(movers), rise)
            return

        # Levelwise: the monolithic inlined fast path, minus orientation
        # bookkeeping (unsupported here), plus ghost-mark suppression and
        # move recording.  Aggregate charging is identical: the sum of
        # |U[v]| over movers as work, one structure-mutation depth.
        target = level + 1
        if target == self.num_levels:
            if any(
                rec.level == level and len(rec.up) > bound for rec in candidates
            ):
                raise _LevelOverflow  # a mover would leave the table
            return
        bound_t = bounds[target]
        crossing = bound_t + 1
        total_work = 0
        marked_next: list[_VertexRecord] = []
        marked_append = marked_next.append
        for rec in candidates:
            if rec.level != level:
                continue
            up = rec.up
            if len(up) <= bound:
                continue
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
                            marked_append(wrec)
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
            moves[rec.id] = target
            if len(up) > bound_t:
                marked_append(rec)
        if not total_work:
            return
        tracker.add(total_work, self._mut_depth)
        if marked_next:
            bucket = dirty.get(target)
            if bucket is None:
                dirty[target] = set(marked_next)
            else:
                bucket.update(marked_next)

    def desaturate_level(self, level: int, moves: dict[int, int]) -> None:
        """Process this shard's pending bucket at ``level`` (one
        Algorithm-3 level iteration), recording each mover's new level
        in ``moves``.

        Desire levels are revalidated at move time exactly as in the
        monolithic loop — with ghosts this also absorbs cross-shard
        staleness: mirrored levels only over-estimate during a deletion
        phase, so a stored desire is only ever too high, and the fresh
        scan (or a later weakened-propagation re-consider) corrects it.
        """
        tracker = self.tracker
        tracker.add(work=1, depth=1)
        bucket = self._pending.pop(level, None)
        if not bucket:
            return
        desire = self._desire
        vertices = self._vertices
        movers = [
            v
            for v in bucket
            if desire.get(v) == level and vertices[v].level > level
        ]
        if not movers:
            return
        pending = self._pending

        def descend(v: int) -> None:
            rec = vertices[v]
            fresh = self._calculate_desire_level(rec)
            if fresh != level:
                if fresh < rec.level:
                    desire[v] = fresh
                    slot = pending.get(fresh)
                    if slot is None:
                        pending[fresh] = {v}
                    else:
                        slot.add(v)
                else:
                    desire.pop(v, None)
                return
            weakened = self._move_down(rec, level)
            moves[v] = level
            desire.pop(v, None)
            for wrec in weakened:
                if wrec.ghost:
                    continue  # the owner re-considers it off our event
                desire.pop(wrec.id, None)
                self._consider(wrec)

        tracker.flat_parfor(sorted(movers), descend)

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
        dirty = self._dirty
        desire = self._desire

        def replay(event: MoveEvent) -> None:
            rec = ghosts[event[0]]
            new = event[1]
            if new > rec.level:
                for wrec in self._move_up_to(rec, new):
                    bucket = dirty.get(wrec.level)
                    if bucket is None:
                        dirty[wrec.level] = {wrec}
                    else:
                        bucket.add(wrec)
            else:
                for wrec in self._move_down(rec, new):
                    desire.pop(wrec.id, None)
                    self._consider(wrec)

        self.tracker.flat_parfor(events, replay)

    def _consider(self, rec: _VertexRecord) -> None:
        """Algorithm 3's Invariant-2 check + desire enqueue for a local
        record (the monolithic ``consider`` closure, shard-resident)."""
        lvl = rec.level
        if lvl == 0:
            return
        below = rec.down.get(lvl - 1)
        up_star = len(rec.up) + (len(below) if below else 0)
        if up_star < self._inv2_thresh_int[lvl]:
            dl = self._calculate_desire_level(rec)
            self._desire[rec.id] = dl
            bucket = self._pending.get(dl)
            if bucket is None:
                self._pending[dl] = {rec.id}
            else:
                bucket.add(rec.id)

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
