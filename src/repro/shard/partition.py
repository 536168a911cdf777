"""Vertex partitioning for the sharded PLDS engine.

A :class:`Partitioner` maps every vertex id to exactly one **owner
shard**.  Edges follow their *minimum* endpoint (the canonical-edge
convention the whole stack uses), so each edge has exactly one owner
shard too — the one that counts it toward ``num_edges`` — while both
endpoint owners hold the edge structurally (the non-owning endpoint as
a ghost replica; see :mod:`repro.shard.kernel`).

Two strategies:

- ``"hash"`` (default): ``owner(v) = v % num_shards``.  Stateless, so
  vertices that appear mid-stream are placed without coordination.
- ``"degree"``: degree-balanced via :meth:`Partitioner.degree_balanced`
  — LPT (longest-processing-time) assignment of vertices in decreasing
  degree order over a vertex -> degree map of the initial graph,
  balancing the *accumulated degree* per shard.  The computed assignment
  is explicit; vertices outside it (new arrivals) fall back to hash.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["Partitioner"]


class Partitioner:
    """Deterministic vertex -> shard ownership map.

    Parameters
    ----------
    num_shards:
        Number of shards (>= 1).
    kind:
        ``"hash"`` or ``"degree"`` — recorded capability metadata; the
        ownership rule itself is the explicit ``assignment`` overlaid on
        the hash fallback either way.
    assignment:
        Optional explicit vertex -> shard map (as produced by
        :meth:`degree_balanced`).  Vertices not listed fall back to
        ``v % num_shards``.
    """

    def __init__(
        self,
        num_shards: int,
        kind: str = "hash",
        assignment: Mapping[int, int] | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if kind not in ("hash", "degree"):
            raise ValueError("partition kind must be 'hash' or 'degree'")
        self.num_shards = num_shards
        self.kind = kind
        self._assignment: dict[int, int] = dict(assignment or {})
        for v, s in self._assignment.items():
            if not 0 <= s < num_shards:
                raise ValueError(f"assignment maps {v} to invalid shard {s}")
        # The assignment never changes, so its snapshot form is built
        # once: every batch's restore point reads it in O(1).
        self._items = sorted([v, s] for v, s in self._assignment.items())

    def owner(self, v: int) -> int:
        """Owner shard of vertex ``v``."""
        s = self._assignment.get(v)
        return s if s is not None else v % self.num_shards

    def assignment_items(self) -> list[list[int]]:
        """Sorted ``[vertex, shard]`` pairs (JSON-friendly, for snapshots;
        shared, so callers must not mutate them)."""
        return self._items

    @classmethod
    def degree_balanced(
        cls, degrees: Mapping[int, int], num_shards: int
    ) -> "Partitioner":
        """LPT degree-balanced partition of the vertices of ``degrees``
        (a vertex -> degree map).

        Vertices are assigned in decreasing-degree order (ties toward
        the smaller id) to the shard with the smallest accumulated
        degree so far (ties toward the smaller shard id) — the classic
        greedy makespan bound, applied to per-shard adjacency load.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        loads = [0] * num_shards
        assignment: dict[int, int] = {}
        by_degree = sorted(degrees, key=lambda v: (-degrees[v], v))
        for v in by_degree:
            s = min(range(num_shards), key=lambda i: (loads[i], i))
            assignment[v] = s
            loads[s] += degrees[v]
        return cls(num_shards, kind="degree", assignment=assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Partitioner(shards={self.num_shards}, kind={self.kind!r}, "
            f"pinned={len(self._assignment)})"
        )
