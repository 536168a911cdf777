"""Invariant and guarantee checkers used by the test suite.

Gathers the checkable promises the paper makes beyond the structural
Invariants 1–2, which :meth:`PLDS.check_invariants` checks itself:

- the ``(2+ε)`` coreness approximation of Lemma 5.13;
- consistency between the PLDS's internal adjacency bookkeeping and a
  reference edge set.
"""

from __future__ import annotations

from typing import Mapping

from .plds import PLDS

__all__ = [
    "approximation_violations",
    "structure_matches_edges",
]


def approximation_violations(
    estimates: Mapping[int, float],
    exact: Mapping[int, int],
    factor: float,
    tolerance: float = 1e-9,
) -> list[str]:
    """Vertices whose estimate falls outside ``[k/factor, k*factor]``.

    Vertices with exact coreness 0 are skipped, matching the paper's error
    protocol (Section 6.2).
    """
    problems: list[str] = []
    for v, k in exact.items():
        if k == 0:
            continue
        est = estimates.get(v, 0.0)
        if est < k / factor - tolerance or est > k * factor + tolerance:
            problems.append(
                f"v={v}: estimate {est:.3f} outside "
                f"[{k / factor:.3f}, {k * factor:.3f}] for coreness {k}"
            )
    return problems


def structure_matches_edges(
    plds: PLDS, edges: set[tuple[int, int]]
) -> list[str]:
    """Check the PLDS's U/L structures encode exactly ``edges``."""
    problems: list[str] = []
    plds_edges = set(plds.edges())
    missing = edges - plds_edges
    extra = plds_edges - edges
    if missing:
        problems.append(f"missing edges: {sorted(missing)[:10]}")
    if extra:
        problems.append(f"extra edges: {sorted(extra)[:10]}")
    if plds.num_edges != len(edges):
        problems.append(
            f"edge counter {plds.num_edges} != actual {len(edges)}"
        )
    return problems
