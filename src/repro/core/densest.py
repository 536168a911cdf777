"""Densest-subgraph estimation from the level structure.

The LDS line of work the paper builds on (Bhattacharya et al. [13],
Section 3's related work) originally used level structures for dynamic
*densest subgraph*.  The same estimates fall out of our PLDS for free:

- the maximum density ρ* of any subgraph satisfies ``d/2 <= ρ* <= d``
  where ``d`` is the degeneracy (= maximum coreness), and
- the PLDS maintains ``k̂_max ∈ [d/(2+ε), (2+ε)·d]`` (Lemma 5.13),

so ``k̂_max / 2`` is a ``2(2+ε)``-approximation of ρ*, maintained
batch-dynamically at no extra cost.  A witness subgraph comes from the
top occupied levels.

For verification, :func:`charikar_peel` implements the classic greedy
2-approximation (peel minimum-degree vertices, keep the densest prefix),
whose output ``g`` brackets the optimum: ``g <= ρ* <= 2g``.
"""

from __future__ import annotations

from typing import Iterable

from .plds import PLDS

__all__ = ["charikar_peel", "densest_subgraph_estimate"]


def charikar_peel(
    edges: Iterable[tuple[int, int]],
) -> tuple[float, set[int]]:
    """Charikar's greedy densest-subgraph 2-approximation.

    Returns ``(density, vertices)`` of the densest peel prefix; the true
    maximum density ρ* satisfies ``density <= ρ* <= 2 * density``.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if not adj:
        return 0.0, set()

    n = len(adj)
    m = sum(len(s) for s in adj.values()) // 2
    deg = {v: len(s) for v, s in adj.items()}
    maxdeg = max(deg.values())
    buckets: list[set[int]] = [set() for _ in range(maxdeg + 1)]
    for v, d in deg.items():
        buckets[d].add(v)

    removal_order: list[int] = []
    removed: set[int] = set()
    cur = 0
    cur_edges = m
    best_density = m / n
    best_cut = 0  # removals applied when the best density was seen
    for step in range(n - 1):
        while not buckets[cur]:
            cur += 1
        v = buckets[cur].pop()
        removed.add(v)
        removal_order.append(v)
        cur_edges -= deg[v]
        for w in adj[v]:
            if w in removed:
                continue
            buckets[deg[w]].discard(w)
            deg[w] -= 1
            buckets[deg[w]].add(w)
            cur = min(cur, deg[w])
        density = cur_edges / (n - step - 1)
        if density > best_density:
            best_density = density
            best_cut = step + 1
    survivors = set(adj) - set(removal_order[:best_cut])
    return best_density, survivors


def densest_subgraph_estimate(plds: PLDS) -> tuple[float, set[int]]:
    """``2(2+ε)``-approximate maximum subgraph density from a PLDS.

    Returns ``(density_estimate, witness_vertices)`` where the estimate
    is ``k̂_max / 2`` and the witness is the set of vertices achieving
    the maximum coreness estimate (the top occupied group).  Costs O(n)
    (two level walks, :meth:`~repro.core.query.QueryView.densest_estimate`);
    no update-time overhead beyond the PLDS itself.
    """
    return plds.densest_estimate()
