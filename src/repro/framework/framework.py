"""Framework for batch-dynamic algorithms on bounded-arboricity graphs.

Implements the paper's Section 8 (Algorithm 7, ``GraphProblemUpdate``):
every application (maximal matching, k-clique counting, vertex coloring)
plugs three methods into a shared driver that first updates the PLDS, then
extracts the orientation changes, and finally hands the application

1. ``batch_flips(flips, ins, dels)`` — orientation flips of *surviving*
   edges (directed edges giving the pre-flip orientation);
2. ``batch_delete(oriented_deletions)`` — deleted edges, directed per the
   *pre-batch* orientation;
3. ``batch_insert(oriented_insertions)`` — inserted edges, directed per
   the *post-batch* orientation.

The driver also performs the batch preprocessing the paper assumes
(Section 8): raw updates are deduplicated and validated against the
current graph before anything runs.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from ..core.plds import PLDS, DirectedEdge, UpdateResult
from ..graphs.streams import Batch, EdgeUpdate, preprocess_batch
from ..obs import tracing as _tracing
from ..parallel.engine import WorkDepthTracker

__all__ = ["BatchDynamicApplication", "FrameworkDriver"]


class BatchDynamicApplication(Protocol):
    """The three problem-specific methods of Algorithm 7."""

    def batch_flips(
        self,
        flips: list[DirectedEdge],
        oriented_insertions: list[DirectedEdge],
        oriented_deletions: list[DirectedEdge],
    ) -> None: ...

    def batch_delete(self, oriented_deletions: list[DirectedEdge]) -> None: ...

    def batch_insert(self, oriented_insertions: list[DirectedEdge]) -> None: ...


class FrameworkDriver:
    """Algorithm 7: PLDS update -> orientation -> app callbacks.

    The driver owns the PLDS (constructed with orientation tracking) and a
    registered application.  ``update`` applies a preprocessed
    :class:`~repro.graphs.streams.Batch`; ``update_raw`` accepts arbitrary
    (possibly duplicate/invalid) :class:`EdgeUpdate` streams and
    preprocesses them first.
    """

    def __init__(
        self,
        app: BatchDynamicApplication,
        n_hint: int,
        delta: float = 0.4,
        lam: float = 3.0,
        group_shrink: int = 1,
        tracker: WorkDepthTracker | None = None,
    ) -> None:
        self.tracker = tracker if tracker is not None else WorkDepthTracker()
        self.plds = PLDS(
            n_hint=n_hint,
            delta=delta,
            lam=lam,
            group_shrink=group_shrink,
            tracker=self.tracker,
            track_orientation=True,
        )
        self.app = app

    def update(self, batch: Batch) -> UpdateResult:
        """Apply one batch of unique, valid updates (Algorithm 7)."""
        result = self.plds.update(batch)  # Lines 1-2: PLDS + orientation.
        # Optional hook: apps that track per-level state (e.g. the explicit
        # coloring's per-level palettes) need the set of moved vertices.
        batch_moved = getattr(self.app, "batch_moved", None)
        if batch_moved is not None:
            batch_moved(result.moved_vertices)
        tracer = _tracing.ACTIVE
        if tracer is None:
            # Line 4: BatchFlips, then Line 5: BatchDelete, Line 6: BatchInsert.
            self.app.batch_flips(
                result.flipped,
                result.oriented_insertions,
                result.oriented_deletions,
            )
            self.app.batch_delete(result.oriented_deletions)
            self.app.batch_insert(result.oriented_insertions)
            return result
        with tracer.span(
            "framework.flips", self.tracker, flips=len(result.flipped)
        ):
            self.app.batch_flips(
                result.flipped,
                result.oriented_insertions,
                result.oriented_deletions,
            )
        with tracer.span(
            "framework.delete",
            self.tracker,
            edges=len(result.oriented_deletions),
        ):
            self.app.batch_delete(result.oriented_deletions)
        with tracer.span(
            "framework.insert",
            self.tracker,
            edges=len(result.oriented_insertions),
        ):
            self.app.batch_insert(result.oriented_insertions)
        return result

    def update_raw(self, updates: Iterable[EdgeUpdate]) -> UpdateResult:
        """Preprocess raw updates (dedupe + validate) and apply them."""
        return self.update(preprocess_batch(self.plds, updates))
