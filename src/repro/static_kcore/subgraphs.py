"""k-core subgraph extraction and the coreness hierarchy.

The paper's introduction motivates coreness as a community-strength
signal: "the coreness values induce a natural hierarchical clustering".
This module turns coreness values (exact or PLDS estimates) into the
objects applications actually consume:

- :func:`k_core_subgraph` — the exact k-core (Definition 2.1);
- :func:`approx_k_core_candidates` — a superset of the k-core selected
  from PLDS estimates, with the containment guarantee of Lemma 5.13;
- :func:`core_hierarchy` — the nested decomposition: for every occupied
  core value, the connected components of the ≥k induced subgraph
  (each component of the (k+1)-level nests inside one k-level component).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.plds import PLDS
from .exact import exact_coreness

__all__ = [
    "k_core_subgraph",
    "approx_k_core_candidates",
    "core_hierarchy",
    "CoreComponent",
]


def k_core_subgraph(
    edges: Iterable[tuple[int, int]], k: int
) -> tuple[set[int], list[tuple[int, int]]]:
    """The exact k-core: vertices with coreness >= k and induced edges."""
    edges = list(edges)
    core = exact_coreness(edges)
    vs = {v for v, c in core.items() if c >= k}
    kept = [(u, v) for u, v in edges if u in vs and v in vs]
    return vs, kept


def approx_k_core_candidates(plds: PLDS, k: int) -> set[int]:
    """Vertices whose PLDS estimate admits coreness >= k.

    Guarantee (from Lemma 5.13): every vertex of the true k-core is
    included, because a vertex with coreness >= k has estimate
    >= k / factor.  The selection may also include vertices with true
    coreness as low as ``k / factor²`` — it is a superset filter to be
    refined by exact peeling when needed.  Answered by one level cut
    (:meth:`~repro.core.query.QueryView.core_members` at
    ``k / factor - 1e-12``), not by a per-vertex estimate lookup.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    return plds.core_members(k / plds.approximation_factor() - 1e-12)


class CoreComponent:
    """One connected component of the ≥k induced subgraph."""

    __slots__ = ("k", "vertices", "children")

    def __init__(self, k: int, vertices: frozenset[int]) -> None:
        self.k = k
        self.vertices = vertices
        #: components of the (next occupied core value)'s subgraph nested
        #: inside this one.
        self.children: list["CoreComponent"] = []

    def __repr__(self) -> str:  # pragma: no cover
        return f"CoreComponent(k={self.k}, n={len(self.vertices)})"


def _components(vs: set[int], adj: Mapping[int, set[int]]) -> list[frozenset[int]]:
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for start in sorted(vs):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for w in adj.get(x, ()):
                if w in vs and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        out.append(frozenset(comp))
    return out


def core_hierarchy(
    edges: Iterable[tuple[int, int]],
    coreness: Mapping[int, int] | None = None,
) -> list[CoreComponent]:
    """The hierarchical clustering induced by the coreness values.

    Returns the roots (components of the 1-core, i.e. of the graph); each
    component's ``children`` are the components of the next occupied core
    value nested inside it, recursively.  ``coreness`` defaults to exact
    peeling of ``edges``; pass PLDS estimates (rounded) for the
    approximate hierarchy.
    """
    edges = list(edges)
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if coreness is None:
        coreness = exact_coreness(edges)
    if not coreness:
        return []
    levels = sorted({int(c) for c in coreness.values() if c >= 1})
    if not levels:
        return []

    prev: list[CoreComponent] = []
    roots: list[CoreComponent] = []
    for k in levels:
        vs = {v for v, c in coreness.items() if c >= k}
        comps = [CoreComponent(k, cset) for cset in _components(vs, adj)]
        if not prev:
            roots = comps
        else:
            for comp in comps:
                # nest inside the unique parent containing it
                for parent in prev:
                    if comp.vertices <= parent.vertices:
                        parent.children.append(comp)
                        break
        prev = comps
    return roots
