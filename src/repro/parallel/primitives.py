"""Metered parallel primitives.

The paper assumes these Section-2 ("Preliminaries") primitives, with
the costs it cites:

===============  =================  ==================
primitive        work               depth
===============  =================  ==================
reduce           O(n)               O(log n)
filter / pack    O(n)               O(log n)
prefix sum       O(n)               O(log n)
comparison sort  O(n log n)         O(log n)
semisort         O(n) expected      O(log n) w.h.p.
===============  =================  ==================

Only the semisort has a function of its own here
(:func:`parallel_semisort`, for Algorithm 6).  The algorithms run the
others as plain Python over their own containers and charge them at
the call site, in the form ``tracker.add(n, log2_ceil(n) + 1)``;
:func:`log2_ceil` is the shared depth helper.
"""

from __future__ import annotations

from typing import Hashable, Sequence, TypeVar

from .engine import WorkDepthTracker

T = TypeVar("T")
K = TypeVar("K", bound=Hashable)

__all__ = ["log2_ceil", "parallel_semisort"]


def log2_ceil(n: int) -> int:
    """``ceil(log2(n))`` for n >= 1, else 0 — used for depth charges."""
    if n <= 1:
        return 0
    return (n - 1).bit_length()


def parallel_semisort(
    tracker: WorkDepthTracker,
    pairs: Sequence[tuple[K, T]],
) -> dict[K, list[T]]:
    """Group pairs by key: O(n) expected work, O(log n) depth w.h.p. [43].

    Returns groups keyed by the (hashable) key; within a group, values keep
    their input order.  Used by the static approximate k-core algorithm
    (Algorithm 6) to aggregate peeled-edge counts per neighbor.
    """
    n = len(pairs)
    tracker.add(work=max(n, 1), depth=log2_ceil(n) + 1)
    groups: dict[K, list[T]] = {}
    for k, v in pairs:
        groups.setdefault(k, []).append(v)
    return groups
