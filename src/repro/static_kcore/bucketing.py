"""Parallel bucketing structure (paper Section 7, citing [27]).

Maps vertices to integer buckets and supports extracting the lowest
non-empty bucket plus batched bucket updates — the engine behind both the
exact peeling algorithm of Dhulipala et al. [27] and the paper's
Algorithm 6.  Batch updates are metered as a semisort + hash updates:
O(batch) expected work, O(log n) depth w.h.p.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from ..parallel.engine import WorkDepthTracker
from ..parallel.primitives import log2_ceil

__all__ = ["ParallelBucketing"]


class ParallelBucketing:
    """Vertex -> bucket mapping with lowest-bucket extraction.

    Buckets are non-negative integers.  A lazy min-heap of bucket ids keeps
    ``pop_lowest`` cheap even when vertices move between buckets.
    """

    def __init__(
        self,
        tracker: WorkDepthTracker,
        assignments: Iterable[tuple[int, int]] = (),
    ) -> None:
        self._tracker = tracker
        self._bucket_of: dict[int, int] = {}
        self._buckets: dict[int, set[int]] = {}
        self._heap: list[int] = []
        self.update_batch(assignments)

    def update_batch(self, assignments: Iterable[tuple[int, int]]) -> None:
        """Move each ``(vertex, bucket)`` to its new bucket (batched)."""
        assignments = list(assignments)
        if not assignments:
            return
        self._tracker.add(
            work=len(assignments), depth=log2_ceil(len(assignments)) + 1
        )
        for v, b in assignments:
            if b < 0:
                raise ValueError("bucket ids must be non-negative")
            old = self._bucket_of.get(v)
            if old == b:
                continue
            if old is not None:
                self._buckets[old].discard(v)
            self._bucket_of[v] = b
            group = self._buckets.get(b)
            if group is None:
                self._buckets[b] = {v}
                heapq.heappush(self._heap, b)
            else:
                group.add(v)

    def pop_lowest(self) -> tuple[list[int], int] | None:
        """Extract all vertices of the lowest non-empty bucket.

        Returns ``(vertex_ids, bucket_id)`` or ``None`` if empty.
        O(|bucket|) work, O(log n) depth.
        """
        while self._heap:
            b = self._heap[0]
            group = self._buckets.get(b)
            if not group:
                heapq.heappop(self._heap)
                self._buckets.pop(b, None)
                continue
            vertices = sorted(group)
            group.clear()
            for v in vertices:
                del self._bucket_of[v]
            self._tracker.add(
                work=max(1, len(vertices)), depth=log2_ceil(len(vertices)) + 1
            )
            return vertices, b
        return None
