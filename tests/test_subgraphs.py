"""Tests for k-core extraction and the coreness hierarchy."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.static_kcore.exact import exact_coreness
from repro.static_kcore.subgraphs import (
    approx_k_core_candidates,
    core_hierarchy,
    k_core_subgraph,
)
from repro.graphs.generators import (
    barabasi_albert,
    erdos_renyi,
    planted_clique,
    ring_of_cliques,
)

from .conftest import build_plds


class TestKCoreSubgraph:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_networkx(self, k):
        edges = erdos_renyi(100, 500, seed=1)
        vs, kept = k_core_subgraph(edges, k)
        nx_core = nx.k_core(nx.Graph(edges), k)
        assert vs == set(nx_core.nodes)
        assert len(kept) == nx_core.number_of_edges()

    def test_min_degree_property(self):
        edges = barabasi_albert(150, 4, seed=2)
        vs, kept = k_core_subgraph(edges, 3)
        deg: dict[int, int] = {}
        for u, v in kept:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert all(d >= 3 for d in deg.values())

    def test_too_large_k_empty(self):
        vs, kept = k_core_subgraph([(0, 1)], 5)
        assert vs == set()
        assert kept == []


@pytest.mark.query
class TestApproxCandidates:
    def test_contains_true_core(self):
        edges = planted_clique(100, 150, 12, seed=3)
        plds = build_plds(edges)
        exact = exact_coreness(edges)
        for k in (2, 5, 11):
            candidates = approx_k_core_candidates(plds, k)
            true_core = {v for v, c in exact.items() if c >= k}
            assert true_core <= candidates, k

    def test_selectivity(self):
        # the candidate filter should exclude clearly-low vertices
        edges = planted_clique(200, 250, 12, seed=4)
        plds = build_plds(edges)
        candidates = approx_k_core_candidates(plds, 11)
        assert len(candidates) < plds.num_vertices / 2

    def test_invalid_k(self):
        plds = build_plds([(0, 1)])
        with pytest.raises(ValueError):
            approx_k_core_candidates(plds, 0)


class TestCoreHierarchy:
    def test_ring_of_cliques_is_single_flat_component(self):
        # every vertex has coreness 5 and the ring connects the cliques,
        # so the hierarchy is one flat component at k=5.
        edges = ring_of_cliques(5, 6)
        roots = core_hierarchy(edges)
        assert len(roots) == 1
        assert roots[0].k == 5
        assert len(roots[0].vertices) == 30
        assert roots[0].children == []

    def test_planted_clique_hierarchy(self):
        # sparse background + a dense plant: the deepest nested component
        # is exactly the planted clique.
        edges = planted_clique(120, 150, 10, seed=9)
        roots = core_hierarchy(edges)
        deepest = None
        stack = list(roots)
        while stack:
            node = stack.pop()
            if not node.children:
                if deepest is None or node.k > deepest.k:
                    deepest = node
            stack.extend(node.children)
        assert deepest is not None
        assert deepest.k == 9
        assert set(range(10)) <= set(deepest.vertices)

    def test_nesting_is_proper(self):
        edges = barabasi_albert(120, 4, seed=5)
        roots = core_hierarchy(edges)

        def walk(comp):
            for child in comp.children:
                assert child.vertices <= comp.vertices
                assert child.k > comp.k
                walk(child)

        for r in roots:
            walk(r)

    def test_components_partition_each_level(self):
        edges = erdos_renyi(80, 200, seed=6)
        roots = core_hierarchy(edges)
        level_vertices: dict[int, set[int]] = {}

        def walk(comp):
            level_vertices.setdefault(comp.k, set()).update(comp.vertices)
            for child in comp.children:
                walk(child)

        for r in roots:
            walk(r)
        core = exact_coreness(edges)
        for k, vs in level_vertices.items():
            assert vs == {v for v, c in core.items() if c >= k}

    def test_empty_graph(self):
        assert core_hierarchy([]) == []

    def test_custom_coreness_accepted(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        plds = build_plds(edges)
        ests = {v: int(round(e)) for v, e in plds.coreness_estimates().items()}
        roots = core_hierarchy(edges, coreness=ests)
        assert roots
