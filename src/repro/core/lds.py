"""Sequential Level Data Structure (LDS) baseline.

The classic sequential level structures of Bhattacharya et al. [13] and
Henzinger et al. [47] (paper Section 5.2), augmented with the paper's
coreness-estimation rule (Section 5.6) — this is exactly the paper's *LDS*
baseline implementation.

The difference from the PLDS is the movement discipline: vertices move
**one level at a time**, cascading one vertex at a time.  In particular a
deletion can trigger the repeated one-level cascades of the paper's
Figure 4, whereas the PLDS computes a desire-level and moves each vertex
exactly once.  Sharing the underlying structures with :class:`PLDS` makes
the comparison apples-to-apples.

Being sequential, its simulated running time is its *work*; the metered
depth equals the work.
"""

from __future__ import annotations

from itertools import repeat

from ..graphs.streams import Batch
from ..obs import metrics as _metrics
from .plds import PLDS, _LevelOverflow, _Pairs

__all__ = ["LDS"]


class LDS(PLDS):
    """Sequential level data structure with single-edge-update semantics.

    Accepts batches for interface compatibility, but processes the updates
    one edge at a time (there is no intra-batch parallelism to exploit).
    """

    _SPAN_NAME = "lds.update"

    def _rebalance(
        self, batch: Batch, ins_pairs: _Pairs | None, del_pairs: _Pairs | None
    ) -> set[int]:
        # The batch is validated: link and unlink the records the check
        # resolved, without a re-check.
        moved: set[int] = set()
        tracker = self.tracker
        record = self._record
        link = self._link_records
        rebuilt = False
        for (u, v), (ru, rv) in zip(
            batch.insertions, ins_pairs or repeat((None, None))
        ):
            if rebuilt or ru is None or rv is None:
                ru = record(u)
                rv = record(v)
            link(ru, rv)
            self._m += 1
            tracker.add(work=2, depth=2)
            try:
                self._fix_insertion_cascade({u, v}, moved)
            except _LevelOverflow:
                # As in PLDS: re-level everything on a doubled table.
                # The rebuild replaces every record, so the remaining
                # edges resolve against the rebuilt ones.
                self._maybe_rebuild(2 * self.n_hint)
                rebuilt = True
        vertices = self._vertices
        unlink = self._unlink_records
        if rebuilt or del_pairs is None:
            del_pairs = [(vertices[u], vertices[v]) for u, v in batch.deletions]
        for (u, v), (ru, rv) in zip(batch.deletions, del_pairs):
            unlink(ru, rv)
            self._m -= 1
            tracker.add(work=2, depth=2)
            self._fix_deletion_cascade({u, v}, moved)
        return moved

    # -- cascades (sequential: depth is charged equal to work) ----------

    def _fix_insertion_cascade(self, seeds: set[int], moved: set[int]) -> None:
        tracker = self.tracker
        bounds = self._inv1_bound_int
        top = self.num_levels - 1
        mreg = _metrics.ACTIVE
        queue = set(seeds)
        while queue:
            v = queue.pop()
            rec = self._vertices.get(v)
            if rec is None:
                continue
            while len(rec.up) > bounds[rec.level]:
                if rec.level == top:
                    raise _LevelOverflow  # v would leave the table
                if mreg is not None:
                    mreg.inc("lds.cascade_moves", phase="insert")
                before = tracker.work
                marked = self._move_up_to(rec, rec.level + 1)
                # sequential: the move contributes its work to the depth too
                tracker.add(work=0, depth=tracker.work - before)
                moved.add(v)
                # The queue holds ids, not records: set-pop order on small
                # ints is reproducible across runs, which keeps the
                # metered cascade deterministic.
                queue.update(sorted(m.id for m in marked))

    def _fix_deletion_cascade(self, seeds: set[int], moved: set[int]) -> None:
        tracker = self.tracker
        thresholds = self._inv2_thresh_int
        mreg = _metrics.ACTIVE
        queue = set(seeds)
        while queue:
            v = queue.pop()
            rec = self._vertices.get(v)
            if rec is None or rec.level == 0:
                continue
            descended = False
            while rec.level > 0:
                below = rec.down.get(rec.level - 1)
                up_star = len(rec.up) + (len(below) if below else 0)
                if up_star >= thresholds[rec.level]:
                    break
                if mreg is not None:
                    mreg.inc("lds.cascade_moves", phase="delete")
                before = tracker.work
                weakened = self._move_down(rec, rec.level - 1)
                tracker.add(work=0, depth=tracker.work - before)
                descended = True
                queue.update(sorted(w.id for w in weakened))
            if descended:
                moved.add(v)
