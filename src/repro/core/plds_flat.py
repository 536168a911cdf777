"""Flat array-backed PLDS: the record layout replaced by integer slots.

:class:`PLDSFlat` reimplements the PLDS hot state (``_VertexRecord``
objects holding ``up: set[record]`` / ``down: dict[level, set[record]]``)
as flat, slot-indexed structures in the GBBS style ("Theoretically
Efficient Parallel Graph Algorithms Can Be Fast and Scalable" — flat
arrays and work-efficient primitives, not pointer graphs):

- every vertex owns a dense *slot* in ``[0, n)``; all per-vertex state
  is parallel arrays indexed by slot, compacted on vertex deletion;
- ``level`` is one dense integer vector (``_lv``) — the single hottest
  load of every cascade loop becomes a list subscript (~17ns on CPython
  3.11) instead of an attribute load through a record header (~25ns);
- adjacency is slot-based: ``_up[i]`` is a set of neighbor *slots*
  (plain ints), ``_down[i]`` maps lower levels to slot sets — int
  hashing is cheaper than record hashing;
- desire levels are computed into a dense ``-1``-initialised scratch
  vector sized by the live slot count, not a per-batch dict.

Parity contract
---------------
``PLDSFlat`` is *observationally bit-identical* to :class:`PLDS` at the
same parameters: identical coreness estimates AND identical metered
(work, depth) on every update stream.  Every charge site of the record
implementation is replicated with the same amounts, and every cascade
processes movers in the same canonical ascending-id order.  The golden
parity fixture and ``tests/test_flat.py`` gate this.
"""

from __future__ import annotations

from typing import Any, Iterator

from .. import faults as _faults
from ..graphs.dynamic_graph import canonical_edge
from ..graphs.streams import Batch
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .plds import PLDS, _is_sorted_unique

__all__ = ["PLDSFlat"]


def _merge_marks(
    buckets: dict[int, list[int]], buf: list[tuple[int, int]]
) -> None:
    """Bulk-apply buffered ``(level, id)`` marks into cascade buckets.

    Produces exactly the sorted-unique buckets that per-item
    :func:`~repro.core.plds.PLDS` ``_mark`` calls would — one sort per
    touched level instead of a bisect-insort (an O(bucket) list shift)
    per mark.  Safe whenever nothing reads ``buckets`` between the marks
    being buffered and this merge, which is the case between the cascade
    loops' ``flat_parfor`` rounds.  ``buf`` is drained.
    """
    per: dict[int, list[int]] = {}
    for level, w in buf:
        lst = per.get(level)
        if lst is None:
            per[level] = [w]
        else:
            lst.append(w)
    buf.clear()
    for level, items in per.items():
        cur = buckets.get(level)
        if cur is None:
            buckets[level] = sorted(set(items))
        else:
            buckets[level] = sorted(set(items).union(cur))


class PLDSFlat(PLDS):
    """Array-backed PLDS (see module docstring).

    Accepts exactly the :class:`PLDS` constructor parameters.
    """

    def __init__(self, n_hint: int, **kwargs: Any) -> None:
        super().__init__(n_hint, **kwargs)
        #: id -> slot.  Slots are dense in [0, _n) and stable between
        #: vertex deletions (which compact by swapping the last slot in).
        self._slot_of: dict[int, int] = {}
        #: slot -> id.
        self._vid: list[int] = []
        self._n = 0
        #: slot -> level; the dense vector every hot loop reads.
        self._lv: list[int] = []
        self._deg: list[int] = []
        #: slot -> set of neighbor slots at levels >= the slot's level.
        self._up: list[set[int]] = []
        #: slot -> {lower level -> set of neighbor slots there}.
        self._down: list[dict[int, set[int]]] = []

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------

    def _slot(self, v: int) -> int:
        i = self._slot_of.get(v)
        if i is None:
            i = self._n
            self._n = i + 1
            self._slot_of[v] = i
            self._vid.append(v)
            self._lv.append(0)
            self._deg.append(0)
            self._up.append(set())
            self._down.append({})
        return i

    def _record(self, v: int):  # type: ignore[override]
        # Base-class drivers (insert_vertices, _rebuild) only create the
        # vertex and ignore the return value.
        return self._slot(v)

    def _has_vertex(self, v: int) -> bool:
        return v in self._slot_of

    def _restore_level(self, v: int, level: int) -> None:
        self._lv[self._slot(v)] = level

    def _drop_vertex(self, v: int) -> bool:
        i = self._slot_of.pop(v, None)
        if i is None:
            return False
        last = self._n - 1
        lv = self._lv
        if i != last:
            # Compact: move the last slot's state into i and rewrite the
            # moved vertex's slot number in its neighbors' structures.
            w = self._vid[last]
            lw = lv[last]
            self._slot_of[w] = i
            self._vid[i] = w
            lv[i] = lw
            self._deg[i] = self._deg[last]
            up_w = self._up[last]
            down_w = self._down[last]
            self._up[i] = up_w
            self._down[i] = down_w
            for j in up_w:
                self._rename_in(j, lw, last, i)
            for bucket in down_w.values():
                for j in bucket:
                    self._rename_in(j, lw, last, i)
        self._vid.pop()
        self._lv.pop()
        self._deg.pop()
        self._up.pop()
        self._down.pop()
        self._n = last
        return True

    def _rename_in(self, j: int, level_of_moved: int, old: int, new: int) -> None:
        """Replace slot ``old`` by ``new`` inside neighbor ``j``'s sets."""
        if level_of_moved >= self._lv[j]:
            up_j = self._up[j]
            if old in up_j:
                up_j.discard(old)
                up_j.add(new)
                return
        bucket = self._down[j].get(level_of_moved)
        if bucket is not None and old in bucket:
            bucket.discard(old)
            bucket.add(new)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def level(self, v: int) -> int:
        i = self._slot_of.get(v)
        return self._lv[i] if i is not None else 0

    def up_degree(self, v: int) -> int:
        i = self._slot_of.get(v)
        return len(self._up[i]) if i is not None else 0

    def up_star_degree(self, v: int) -> int:
        i = self._slot_of.get(v)
        if i is None:
            return 0
        below = self._down[i].get(self._lv[i] - 1)
        return len(self._up[i]) + (len(below) if below else 0)

    def degree(self, v: int) -> int:
        i = self._slot_of.get(v)
        return self._deg[i] if i is not None else 0

    def neighbors(self, v: int) -> list[int]:
        i = self._slot_of.get(v)
        if i is None:
            return []
        vid = self._vid
        out = [vid[j] for j in self._up[i]]
        for bucket in self._down[i].values():
            out.extend(vid[j] for j in bucket)
        out.sort()
        return out

    def has_edge(self, u: int, v: int) -> bool:
        slot_of = self._slot_of
        i = slot_of.get(u)
        j = slot_of.get(v)
        if i is None or j is None:
            return False
        lv = self._lv
        if lv[j] >= lv[i]:
            return j in self._up[i]
        return j in self._down[i].get(lv[j], ())

    @property
    def num_vertices(self) -> int:
        return self._n

    def vertices(self) -> Iterator[int]:
        return iter(self._vid)

    def edges(self) -> Iterator[tuple[int, int]]:
        vid = self._vid
        for i in range(self._n):
            v = vid[i]
            for j in self._up[i]:
                w = vid[j]
                if v < w:
                    yield (v, w)
            for bucket in self._down[i].values():
                for j in bucket:
                    w = vid[j]
                    if v < w:
                        yield (v, w)

    # ------------------------------------------------------------------
    # Coreness estimation
    # ------------------------------------------------------------------
    # The shared QueryView surface (coreness_estimate, core_members,
    # densest_estimate, ...) reads the flat arrays through these hooks.

    def _level_items(self) -> Iterator[tuple[int, int, int]]:
        lv = self._lv
        deg = self._deg
        vid = self._vid
        for i in range(self._n):
            yield vid[i], lv[i], deg[i]

    def _level_deg_of(self, v: int) -> tuple[int, int] | None:
        i = self._slot_of.get(v)
        return (self._lv[i], self._deg[i]) if i is not None else None

    # ------------------------------------------------------------------
    # Orientation queries
    # ------------------------------------------------------------------

    def out_neighbors(self, v: int) -> list[int]:
        i = self._slot_of.get(v)
        if i is None:
            return []
        lv = self._lv
        vid = self._vid
        li = lv[i]
        out = []
        for j in self._up[i]:
            lw = lv[j]
            if lw > li or (lw == li and v < vid[j]):
                out.append(vid[j])
        out.sort()
        return out

    def out_degree(self, v: int) -> int:
        i = self._slot_of.get(v)
        if i is None:
            return 0
        lv = self._lv
        vid = self._vid
        li = lv[i]
        count = 0
        for j in self._up[i]:
            lw = lv[j]
            if lw > li or (lw == li and v < vid[j]):
                count += 1
        return count

    def in_neighbors(self, v: int) -> list[int]:
        i = self._slot_of.get(v)
        if i is None:
            return []
        lv = self._lv
        vid = self._vid
        li = lv[i]
        inn = [vid[j] for j in self._up[i] if lv[j] == li and vid[j] < v]
        for bucket in self._down[i].values():
            inn.extend(vid[j] for j in bucket)
        inn.sort()
        return inn

    # ------------------------------------------------------------------
    # Structure-level edge insertion/deletion
    # ------------------------------------------------------------------

    def _link_slots(self, i: int, j: int) -> None:
        lv = self._lv
        li = lv[i]
        lj = lv[j]
        if lj >= li:
            self._up[i].add(j)
        else:
            down = self._down[i]
            slot = down.get(lj)
            if slot is None:
                down[lj] = {j}
            else:
                slot.add(j)
        if li >= lj:
            self._up[j].add(i)
        else:
            down = self._down[j]
            slot = down.get(li)
            if slot is None:
                down[li] = {i}
            else:
                slot.add(i)
        self._deg[i] += 1
        self._deg[j] += 1

    def _unlink_slots(self, i: int, j: int) -> None:
        lv = self._lv
        li = lv[i]
        lj = lv[j]
        if lj >= li:
            self._up[i].discard(j)
        else:
            down = self._down[i]
            bucket = down[lj]
            bucket.discard(j)
            if not bucket:
                del down[lj]
        if li >= lj:
            self._up[j].discard(i)
        else:
            down = self._down[j]
            bucket = down[li]
            bucket.discard(i)
            if not bucket:
                del down[li]
        self._deg[i] -= 1
        self._deg[j] -= 1

    def _insert_edge_struct(self, u: int, v: int):  # type: ignore[override]
        if u == v:
            raise ValueError("self-loops are not allowed")
        # Duplicate check inlined on the slots so the lookups are shared
        # with the link step (the record engine resolves each endpoint
        # twice: once in has_edge, once in _record).
        slot_of = self._slot_of
        i = slot_of.get(u)
        j = slot_of.get(v)
        if i is not None and j is not None:
            lv = self._lv
            present = (
                j in self._up[i]
                if lv[j] >= lv[i]
                else j in self._down[i].get(lv[j], ())
            )
            if present:
                raise ValueError(f"duplicate edge ({u},{v})")
        if i is None:
            i = self._slot(u)
        if j is None:
            j = self._slot(v)
        self._link_slots(i, j)
        self._m += 1
        return i, j

    def _delete_edge_struct(self, u: int, v: int) -> None:
        # Presence check inlined on the slots (cf. _insert_edge_struct).
        slot_of = self._slot_of
        i = slot_of.get(u)
        j = slot_of.get(v)
        present = False
        if i is not None and j is not None:
            lv = self._lv
            present = (
                j in self._up[i]
                if lv[j] >= lv[i]
                else j in self._down[i].get(lv[j], ())
            )
        if not present:
            raise ValueError(f"edge ({u},{v}) not present")
        self._unlink_slots(i, j)
        self._m -= 1

    def _validate_batch(self, batch: Batch) -> None:
        """Flat edition of :meth:`PLDS._validate_batch`.

        Same checks, same error messages, same ``(max(1,|batch|), 5)``
        charge; the per-edge presence probes run on hoisted slot
        structures instead of bound ``has_edge`` calls.
        """
        self.tracker.add(work=max(1, len(batch)), depth=5)
        slot_get = self._slot_of.get
        lv = self._lv
        ups = self._up
        downs = self._down
        ins = set()
        for u, v in batch.insertions:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) in batch")
            e = canonical_edge(u, v)
            if e in ins:
                raise ValueError(f"duplicate insertion {e} in batch")
            i = slot_get(e[0])
            j = slot_get(e[1])
            if i is not None and j is not None:
                present = (
                    j in ups[i]
                    if lv[j] >= lv[i]
                    else j in downs[i].get(lv[j], ())
                )
                if present:
                    raise ValueError(f"insertion of existing edge {e}")
            ins.add(e)
        dels = set()
        for u, v in batch.deletions:
            e = canonical_edge(u, v)
            if e in dels:
                raise ValueError(f"duplicate deletion {e} in batch")
            if e in ins:
                raise ValueError(f"edge {e} both inserted and deleted in batch")
            i = slot_get(e[0])
            j = slot_get(e[1])
            present = False
            if i is not None and j is not None:
                present = (
                    j in ups[i]
                    if lv[j] >= lv[i]
                    else j in downs[i].get(lv[j], ())
                )
            if not present:
                raise ValueError(f"deletion of missing edge {e}")
            dels.add(e)

    # ------------------------------------------------------------------
    # Algorithm 2: RebalanceInsertions (flat)
    # ------------------------------------------------------------------

    def _rebalance_insertions(
        self, insertions: list[tuple[int, int]], moved: set[int]
    ) -> None:
        tracker = self.tracker
        slot_of = self._slot_of
        lv = self._lv
        dirty: dict[int, list[int]] = {}
        tracker.add(work=2 * len(insertions), depth=self._mut_depth)
        # Levels are static while edges link in, so the dirty buckets
        # can be seeded in bulk: collect endpoints per level, then one
        # sorted-unique build per level (vs two bisect-insorts per edge).
        seed: dict[int, list[int]] = {}
        for u, v in insertions:
            i, j = self._insert_edge_struct(u, v)
            lst = seed.get(lv[i])
            if lst is None:
                seed[lv[i]] = [u]
            else:
                lst.append(u)
            lst = seed.get(lv[j])
            if lst is None:
                seed[lv[j]] = [v]
            else:
                lst.append(v)
        for level, seeded in seed.items():
            dirty[level] = sorted(set(seeded))
        vid = self._vid
        ups = self._up
        downs = self._down

        bounds = self._inv1_bound_int
        jump = self.insertion_strategy == "jump"

        #: (level, id) marks buffered during a rise round; merged into
        #: ``dirty`` after the round's flat_parfor (levels of marked
        #: vertices are static within a round, so deferring is exact).
        rise_marks: list[tuple[int, int]] = []
        rise_marks_append = rise_marks.append

        def rise(v: int) -> None:
            # Jump strategy only; the levelwise path is inlined below.
            i = slot_of[v]
            newly_marked = self._move_up_to_slot(i, self._up_desire_slot(i))
            moved.add(v)
            if len(ups[i]) > bounds[lv[i]]:
                newly_marked.append(i)
            for j in newly_marked:
                rise_marks_append((lv[j], vid[j]))

        track = self.track_orientation
        touched = self._touched
        mut_depth = self._mut_depth
        fault_plan = _faults.ACTIVE
        tracer = _tracing.ACTIVE
        mreg = _metrics.ACTIVE

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
                    if lv[(i := slot_of[v])] == level and len(ups[i]) > bound
                ]
                if not movers:
                    if span is not None:
                        tracer.end(span)
                    continue
                if __debug__:
                    assert _is_sorted_unique(movers)
                tracker.flat_parfor(movers, rise)
                if rise_marks:
                    _merge_marks(dirty, rise_marks)
                if span is not None:
                    span.attrs["movers"] = len(movers)
                    tracer.end(span)
                continue
            # Levelwise fast path, flat edition: the record loop operating
            # on slots.  Each mover's U-set is classified in one pass over
            # dense level-vector reads; charges are identical to the
            # record path (sum of captured |U[v]| over movers, one
            # mut_depth — see plds.py for the order-invariance argument;
            # ascending-id order is the same canonical order both engines
            # use).
            target = level + 1
            bound_t = bounds[target]
            crossing = bound_t + 1
            total_work = 0
            marked_next: list[int] = []
            marked_append = marked_next.append
            moved_add = moved.add
            if track:
                for v in candidates:
                    i = slot_of[v]
                    if lv[i] != level:
                        continue
                    up_i = ups[i]
                    if len(up_i) <= bound:
                        continue
                    moved_add(v)
                    total_work += len(up_i)
                    stay = None
                    for j in up_i:
                        lw = lv[j]
                        if lw == level:
                            # w stays below v; v remains in U[w].
                            if stay is None:
                                stay = [j]
                            else:
                                stay.append(j)
                            w = vid[j]
                            touched.add((v, w) if v <= w else (w, v))
                        else:
                            jdown = downs[j]
                            bucket = jdown[level]
                            bucket.discard(i)
                            if not bucket:
                                del jdown[level]
                            if lw == target:
                                jup = ups[j]
                                jup.add(i)
                                if len(jup) == crossing:
                                    marked_append(vid[j])
                                w = vid[j]
                                touched.add((v, w) if v <= w else (w, v))
                            else:  # lw > target: j's L-structure shifts.
                                slot = jdown.get(target)
                                if slot is None:
                                    jdown[target] = {i}
                                else:
                                    slot.add(i)
                    if stay is not None:
                        up_i.difference_update(stay)
                        down = downs[i]
                        slot = down.get(level)
                        if slot is None:
                            down[level] = set(stay)
                        else:
                            slot.update(stay)
                    lv[i] = target
                    if len(up_i) > bound_t:
                        marked_append(v)
            else:
                # Same loop, minus orientation bookkeeping (the default).
                for v in candidates:
                    i = slot_of[v]
                    if lv[i] != level:
                        continue
                    up_i = ups[i]
                    if len(up_i) <= bound:
                        continue
                    moved_add(v)
                    total_work += len(up_i)
                    stay = None
                    for j in up_i:
                        lw = lv[j]
                        if lw == level:
                            # w stays below v; v remains in U[w].
                            if stay is None:
                                stay = [j]
                            else:
                                stay.append(j)
                        else:
                            jdown = downs[j]
                            bucket = jdown[level]
                            bucket.discard(i)
                            if not bucket:
                                del jdown[level]
                            if lw == target:
                                jup = ups[j]
                                jup.add(i)
                                if len(jup) == crossing:
                                    marked_append(vid[j])
                            else:  # lw > target: j's L-structure shifts.
                                slot = jdown.get(target)
                                if slot is None:
                                    jdown[target] = {i}
                                else:
                                    slot.add(i)
                    if stay is not None:
                        up_i.difference_update(stay)
                        down = downs[i]
                        slot = down.get(level)
                        if slot is None:
                            down[level] = set(stay)
                        else:
                            slot.update(stay)
                    lv[i] = target
                    if len(up_i) > bound_t:
                        marked_append(v)
            if not total_work:
                if span is not None:
                    tracer.end(span)
                continue  # no mover survived the filter at this level
            tracker.add(total_work, mut_depth)
            if marked_next:
                bucket = dirty.get(target)
                if bucket is None:
                    marked_next.sort()
                    dirty[target] = marked_next
                else:
                    # Same contents a per-item _mark loop yields: the
                    # insort path dedupes against the bucket and itself.
                    dirty[target] = sorted(set(marked_next).union(bucket))
            if span is not None:
                tracer.end(span)

    def _move_up_to_slot(self, i: int, target: int) -> list[int]:
        """Slot edition of :meth:`PLDS._move_up_to`; identical charges."""
        self.tracker.add(work=max(1, len(self._up[i])), depth=self._mut_depth)
        lv = self._lv
        old = lv[i]
        if target <= old:
            raise AssertionError("move_up_to requires a strictly higher level")
        ups = self._up
        downs = self._down
        up_i = ups[i]
        track = self.track_orientation
        touched = self._touched
        vid = self._vid
        v = vid[i]
        bounds = self._inv1_bound_int

        to_down: list[tuple[int, int]] = []
        newly_marked: list[int] = []
        for j in up_i:
            lw = lv[j]
            if lw == old:
                to_down.append((j, lw))
                if track:
                    w = vid[j]
                    touched.add((v, w) if v <= w else (w, v))
            elif lw <= target:
                # old < lw <= target: v rises into U[j].
                jdown = downs[j]
                bucket = jdown[old]
                bucket.discard(i)
                if not bucket:
                    del jdown[old]
                jup = ups[j]
                jup.add(i)
                if len(jup) > bounds[lw]:
                    newly_marked.append(j)
                if lw < target:
                    to_down.append((j, lw))
                if track:
                    w = vid[j]
                    touched.add((v, w) if v <= w else (w, v))
            else:  # lw > target: only j's L-structure shifts.
                jdown = downs[j]
                bucket = jdown[old]
                bucket.discard(i)
                if not bucket:
                    del jdown[old]
                slot = jdown.get(target)
                if slot is None:
                    jdown[target] = {i}
                else:
                    slot.add(i)
        down = downs[i]
        for j, lw in to_down:
            up_i.discard(j)
            slot = down.get(lw)
            if slot is None:
                down[lw] = {j}
            else:
                slot.add(j)
        lv[i] = target
        return newly_marked

    def _up_desire_slot(self, i: int) -> int:
        """Slot edition of :meth:`PLDS._up_desire_level`; same charges."""
        lv = self._lv
        old = lv[i]
        up_i = self._up[i]
        counts: dict[int, int] = {}
        for j in up_i:
            lw = lv[j]
            counts[lw] = counts.get(lw, 0) + 1
        cnt = len(up_i)
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
            work=max(1, len(up_i) + (j - old)), depth=self._levels_depth
        )
        return j

    # ------------------------------------------------------------------
    # Algorithm 3: RebalanceDeletions (flat)
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

        slot_of = self._slot_of
        lv = self._lv
        ups = self._up
        downs = self._down
        thresholds = self._inv2_thresh_int
        #: slot -> desire level, -1 = unset (the dense scratch that
        #: replaces the record engine's desire dict).
        desire = [-1] * self._n
        pending: dict[int, list[int]] = {}
        tracker_add = tracker.add
        levels_depth = self._levels_depth
        #: (level, id) marks buffered during a scan/descend round and
        #: bulk-merged into ``pending`` after the round's flat_parfor —
        #: nothing reads ``pending`` mid-round, so deferring is exact.
        mark_buf: list[tuple[int, int]] = []
        mark_buf_append = mark_buf.append

        def consider(w: int) -> None:
            i = slot_of[w]
            lvl = lv[i]
            if lvl == 0:
                return
            down_get = downs[i].get
            below = down_get(lvl - 1)
            up_star = len(ups[i]) + (len(below) if below else 0)
            if up_star < thresholds[lvl]:
                # _desire_slot inlined, resuming after its first scan
                # iteration: that iteration accumulates exactly up_star
                # and can never break (up_star < thresholds[lvl] holds
                # here), so start at lvl-1 with scanned already 2.  The
                # (work, depth) charge is identical to the record path's
                # _calculate_desire_level.
                cnt = up_star
                scanned = 2
                best = 0
                for lprime in range(lvl - 1, 0, -1):
                    bucket = down_get(lprime - 1)
                    if bucket:
                        cnt += len(bucket)
                    if cnt >= thresholds[lprime]:
                        best = lprime
                        scanned += 1
                        break
                    scanned += 1
                tracker_add(scanned, levels_depth)
                desire[i] = best
                mark_buf_append((best, w))

        tracker.flat_parfor(sorted(affected), consider)
        if mark_buf:
            _merge_marks(pending, mark_buf)

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
                if desire[(i := slot_of[v])] == level and lv[i] > level
            ]
            tracker.add(work=1, depth=1)
            if not movers:
                if span is not None:
                    tracer.end(span)
                continue

            def descend(v: int, level: int = level) -> None:
                i = slot_of[v]
                fresh = self._desire_slot(i)
                if fresh != level:
                    if fresh < lv[i]:
                        desire[i] = fresh
                        mark_buf_append((fresh, v))
                    else:
                        desire[i] = -1
                    return
                weakened = self._move_down_slot(i, level)
                moved.add(v)
                desire[i] = -1
                vid = self._vid
                for j in weakened:
                    w = vid[j]
                    if desire[j] != -1:
                        # stale pending entry is skipped lazily
                        desire[j] = -1
                    consider(w)

            if __debug__:
                assert _is_sorted_unique(movers)
            tracker.flat_parfor(movers, descend)
            if mark_buf:
                _merge_marks(pending, mark_buf)
            if span is not None:
                span.attrs["movers"] = len(movers)
                tracer.end(span)

    def _move_down_slot(self, i: int, new_level: int) -> list[int]:
        """Slot edition of :meth:`PLDS._move_down`; identical charges."""
        lv = self._lv
        old = lv[i]
        if new_level >= old:
            raise AssertionError("move_down requires a strictly lower level")
        tracker = self.tracker
        track = self.track_orientation
        touched = self._touched
        ups = self._up
        downs = self._down
        vid = self._vid
        v = vid[i]
        up_i = ups[i]
        weakened: list[int] = []
        ops = len(up_i)

        # Neighbors formerly above or at v's old level.
        for j in up_i:
            lw = lv[j]
            jdown = downs[j]
            if lw == old:
                ups[j].discard(i)
            else:  # lw > old
                bucket = jdown[old]
                bucket.discard(i)
                if not bucket:
                    del jdown[old]
            slot = jdown.get(new_level)
            if slot is None:
                jdown[new_level] = {i}
            else:
                slot.add(i)
            # v left Z_{lw-1} iff new_level < lw - 1 <= old.
            if new_level < lw - 1 <= old:
                weakened.append(j)
            if track and lw <= old:
                w = vid[j]
                touched.add((v, w) if v <= w else (w, v))

        # Neighbors between new_level and old-1 move from L_v into U[v].
        down = downs[i]
        up_add = up_i.add
        for lvl in range(new_level, old):
            bucket = down.pop(lvl, None)
            if not bucket:
                continue
            ops += len(bucket)
            for j in bucket:
                up_add(j)
                lw = lv[j]
                if new_level < lw:
                    ups[j].discard(i)
                    jdown = downs[j]
                    slot = jdown.get(new_level)
                    if slot is None:
                        jdown[new_level] = {i}
                    else:
                        slot.add(i)
                    if new_level < lw - 1 <= old:
                        weakened.append(j)
                if track:
                    w = vid[j]
                    touched.add((v, w) if v <= w else (w, v))

        lv[i] = new_level
        tracker.add(work=max(1, ops), depth=self._mut_depth)
        return weakened

    def _desire_slot(self, i: int) -> int:
        """Slot edition of :meth:`PLDS._calculate_desire_level`."""
        lvl = self._lv[i]
        cnt = len(self._up[i])
        scanned = 1
        best = 0
        down_get = self._down[i].get
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
    # Diagnostics
    # ------------------------------------------------------------------

    def level_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for lvl in self._lv:
            hist[lvl] = hist.get(lvl, 0) + 1
        return hist

    def group_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for lvl in self._lv:
            g = self.group_number(lvl)
            hist[g] = hist.get(g, 0) + 1
        return hist

    def stats(self) -> dict[str, float]:
        levels = self._lv
        return {
            "num_vertices": float(self._n),
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
        problems: list[str] = []
        lv = self._lv
        vid = self._vid
        for i in range(self._n):
            v = vid[i]
            lvl = lv[i]
            up_i = self._up[i]
            down_i = self._down[i]
            actual_deg = len(up_i) + sum(len(s) for s in down_i.values())
            if self._deg[i] != actual_deg:
                problems.append(
                    f"cached degree of v={v} is {self._deg[i]}, "
                    f"structures hold {actual_deg}"
                )
            if len(up_i) > self.inv1_bound(lvl):
                problems.append(
                    f"Invariant 1 violated at v={v}: up={len(up_i)} > "
                    f"{self.inv1_bound(lvl):.2f} (level {lvl})"
                )
            if lvl > 0 and self._deg[i] > 0:
                up_star = len(up_i) + len(down_i.get(lvl - 1, ()))
                if up_star < self.inv2_threshold(lvl):
                    problems.append(
                        f"Invariant 2 violated at v={v}: up*={up_star} < "
                        f"{self.inv2_threshold(lvl):.2f} (level {lvl})"
                    )
            for j in up_i:
                if lv[j] < lvl:
                    problems.append(f"U[{v}] holds {vid[j]} below level {lvl}")
            for lj, bucket in down_i.items():
                if lj >= lvl:
                    problems.append(f"L_{v}[{lj}] exists at/above level {lvl}")
                for j in bucket:
                    if lv[j] != lj:
                        problems.append(
                            f"L_{v}[{lj}] holds {vid[j]} at level {lv[j]}"
                        )
        return problems

    def space_bytes(self) -> int:
        """Byte count of the flat layout (cf. :meth:`PLDS.space_bytes`).

        The dense level and desire vectors cost one pointer-sized list
        slot per vertex (CPython interns the small level ints, so the
        entries alias shared objects) instead of a boxed-int attribute
        per record.  Adjacency
        entries are counted at the same 8-byte granularity the record
        engine uses, plus 16 bytes per non-empty down bucket.  See
        docs/cost_model.md ("Flat-layout memory model").
        """
        total = 8 * self._n  # level vector
        total += 8 * self._n  # desire scratch (allocated per deletion phase)
        total += 12 * self._n  # slot map entry + reverse id entry
        for i in range(self._n):
            total += 8 * len(self._up[i])
            total += sum(16 + 8 * len(s) for s in self._down[i].values())
        total += 24 * len(self._orient)
        return total

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PLDSFlat(n={self._n}, m={self._m}, K={self.num_levels}, "
            f"delta={self.delta}, lam={self.lam}, shrink={self.group_shrink})"
        )
