"""Tests for the low out-degree orientation (Section 5.7, Corollary 3.3)."""

from __future__ import annotations

import random

import pytest

from repro.core.lds import LDS
from repro.core.orientation import (
    degeneracy,
    is_acyclic_orientation,
    max_out_degree,
    out_degrees,
)
from repro.core.plds import PLDS
from repro.graphs.dynamic_graph import canonical_edge
from repro.graphs.generators import (
    barabasi_albert,
    erdos_renyi,
    grid_2d,
    ring_of_cliques,
)
from repro.graphs.streams import Batch

from .conftest import build_plds


class TestHelpers:
    def test_out_degrees(self):
        deg = out_degrees([(0, 1), (0, 2), (1, 2)])
        assert deg == {0: 2, 1: 1, 2: 0}

    def test_max_out_degree_empty(self):
        assert max_out_degree([]) == 0

    def test_acyclic_detects_cycle(self):
        assert not is_acyclic_orientation([(0, 1), (1, 2), (2, 0)])

    def test_acyclic_accepts_dag(self):
        assert is_acyclic_orientation([(0, 1), (1, 2), (0, 2)])

    def test_degeneracy_of_clique(self):
        clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        assert degeneracy(clique) == 5

    def test_degeneracy_of_tree(self):
        assert degeneracy([(0, 1), (1, 2), (2, 3)]) == 1

    def test_degeneracy_of_grid(self):
        assert degeneracy(grid_2d(8, 8)) == 2

    def test_degeneracy_empty(self):
        assert degeneracy([]) == 0


class TestPLDSOrientation:
    @pytest.mark.parametrize(
        "edges",
        [
            erdos_renyi(100, 400, seed=1),
            barabasi_albert(150, 4, seed=2),
            ring_of_cliques(6, 7),
            grid_2d(10, 10),
        ],
        ids=["er", "ba", "cliques", "grid"],
    )
    def test_orientation_acyclic(self, edges):
        plds = build_plds(edges, track_orientation=True)
        assert is_acyclic_orientation(list(plds.oriented_edges()))

    @pytest.mark.parametrize(
        "edges",
        [
            erdos_renyi(100, 400, seed=1),
            barabasi_albert(150, 4, seed=2),
            ring_of_cliques(6, 7),
            grid_2d(10, 10),
        ],
        ids=["er", "ba", "cliques", "grid"],
    )
    def test_out_degree_bounded_by_corollary(self, edges):
        # Corollary 3.3: out-degree <= (2+3/λ)(1+δ)^2 * d + O(1) where d is
        # the degeneracy; with δ=0.4, λ=3 the coefficient is < 6.
        plds = build_plds(edges, track_orientation=True)
        d = degeneracy(edges)
        got = max_out_degree(list(plds.oriented_edges()))
        bound = plds.upper_coeff * (1 + plds.delta) ** 2 * max(d, 1) + 1
        assert got <= bound, (got, bound, d)

    def test_orientation_stays_acyclic_under_churn(self):
        edges = erdos_renyi(80, 320, seed=3)
        plds = build_plds(edges, track_orientation=True)
        plds.update(Batch(deletions=edges[:100]))
        assert is_acyclic_orientation(list(plds.oriented_edges()))
        plds.update(Batch(insertions=edges[:50]))
        assert is_acyclic_orientation(list(plds.oriented_edges()))

    def test_out_plus_in_equals_degree(self):
        plds = build_plds(erdos_renyi(60, 240, seed=4), track_orientation=True)
        for v in plds.vertices():
            assert len(plds.out_neighbors(v)) + len(plds.in_neighbors(v)) == (
                plds.degree(v)
            )

    def test_amortized_flips_bounded(self):
        # Theorem 3.2: O(|B| log^2 n) amortized flips.
        edges = erdos_renyi(100, 400, seed=6)
        plds = build_plds(edges[:200], track_orientation=True)
        total_flips = 0
        for i in range(200, 400, 20):
            res = plds.update(Batch(insertions=edges[i : i + 20]))
            total_flips += len(res.flipped)
        import math

        log2n = math.log2(100) ** 2
        assert total_flips <= 200 * log2n


class TestReversedPairs:
    """``update`` takes an edge as ``(u, v)`` or ``(v, u)``; orientation
    upkeep must key on the canonical edge either way."""

    @staticmethod
    def _run(cls, reverse):
        edges = [canonical_edge(*e) for e in barabasi_albert(300, 5, seed=3)]
        random.Random(1).shuffle(edges)
        flip = (lambda e: (e[1], e[0])) if reverse else (lambda e: e)
        engine = cls(n_hint=300, track_orientation=True)
        results = [
            engine.update(Batch(insertions=[flip(e) for e in edges[i : i + 100]]))
            for i in range(0, len(edges), 100)
        ]
        results.append(engine.update(Batch(deletions=[flip(e) for e in edges[:400]])))
        # Flips are collected from a set of edges: compare them as sets.
        for r in results:
            r.flipped.sort()
        return results, engine

    @pytest.mark.parametrize("cls", [PLDS, LDS], ids=["plds", "lds"])
    def test_reversed_input_matches_canonical(self, cls):
        canon, ref = self._run(cls, reverse=False)
        rev, engine = self._run(cls, reverse=True)
        assert sum(len(r.flipped) for r in canon) > 0
        assert rev == canon
        assert engine._orient == ref._orient
        assert set(engine._orient) == set(engine.edges())
        assert all(d == engine.orientation_of(*e) for e, d in engine._orient.items())
