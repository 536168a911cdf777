"""Tests for static k-core algorithms (Section 7 and the ExactKCore baseline)."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.graphs.generators import (
    barabasi_albert,
    dense_cluster_graph,
    erdos_renyi,
    grid_2d,
    ring_of_cliques,
)
from repro.parallel.engine import WorkDepthTracker
from repro.static_kcore.approx import approx_coreness_static
from repro.static_kcore.bucketing import ParallelBucketing
from repro.static_kcore.exact import (
    ParallelExactKCore,
    exact_coreness,
    max_coreness,
)

GRAPHS = {
    "er": erdos_renyi(150, 900, seed=1),
    "ba": barabasi_albert(200, 5, seed=2),
    "cliques": ring_of_cliques(8, 6),
    "grid": grid_2d(10, 10),
    "dense": dense_cluster_graph(3, 12, 40, seed=3),
}


class TestBucketing:
    def test_pop_lowest_order(self, tracker):
        b = ParallelBucketing(tracker, [(1, 5), (2, 3), (3, 5)])
        vs, bkt = b.pop_lowest()
        assert (vs, bkt) == ([2], 3)
        vs, bkt = b.pop_lowest()
        assert (sorted(vs), bkt) == ([1, 3], 5)
        assert b.pop_lowest() is None

    def test_update_moves_vertex(self, tracker):
        b = ParallelBucketing(tracker, [(1, 5)])
        b.update_batch([(1, 2)])
        vs, bkt = b.pop_lowest()
        assert (vs, bkt) == ([1], 2)
        assert b.pop_lowest() is None

    def test_negative_bucket_rejected(self, tracker):
        b = ParallelBucketing(tracker)
        with pytest.raises(ValueError):
            b.update_batch([(1, -1)])


class TestExactCoreness:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_networkx(self, name):
        edges = GRAPHS[name]
        expected = dict(nx.core_number(nx.Graph(edges)))
        assert exact_coreness(edges) == expected

    def test_isolated_vertices(self):
        core = exact_coreness([(0, 1)], vertices=[5])
        assert core[5] == 0

    def test_empty_graph(self):
        assert exact_coreness([]) == {}

    def test_max_coreness(self):
        assert max_coreness(exact_coreness(ring_of_cliques(4, 5))) == 4

    def test_pendant_chain_clamp(self):
        # Regression: triangle plus pendant — peeling must clamp upward.
        edges = [(0, 1), (1, 2), (0, 2), (0, 3)]
        core = exact_coreness(edges)
        assert core == {0: 2, 1: 2, 2: 2, 3: 1}


class TestParallelExactKCore:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_sequential(self, name):
        edges = GRAPHS[name]
        result = ParallelExactKCore().run(edges)
        assert result.coreness == exact_coreness(edges)

    def test_rounds_reported(self):
        result = ParallelExactKCore().run(GRAPHS["er"])
        assert result.rounds >= 1

    def test_work_linearish(self):
        algo = ParallelExactKCore()
        edges = GRAPHS["er"]
        algo.run(edges)
        assert algo.tracker.work < 100 * len(edges)

    def test_path_graph_exhibits_deep_peeling(self):
        # A path is the classic rho = Theta(n) case: each exact peeling
        # round only removes the two endpoints.  This is the depth
        # bottleneck of [27] that Algorithm 6 eliminates.
        path = [(i, i + 1) for i in range(200)]
        result = ParallelExactKCore().run(path)
        assert result.rounds >= 100


class TestApproxKCore:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_approximation_factor(self, name):
        edges = GRAPHS[name]
        eps = 0.5
        res = approx_coreness_static(edges, eps=eps, delta=0.5)
        exact = exact_coreness(edges)
        bound = (2 + eps) * (1 + eps)
        for v, k in exact.items():
            if k == 0:
                continue
            est = res.estimates[v]
            assert est > 0
            ratio = max(est / k, k / est)
            assert ratio <= bound, (name, v, est, k)

    def test_estimates_cover_all_vertices(self):
        edges = GRAPHS["ba"]
        res = approx_coreness_static(edges)
        vs = {x for e in edges for x in e}
        assert set(res.estimates) == vs

    def test_isolated_vertex_zero(self):
        res = approx_coreness_static([(0, 1)], vertices=[9])
        assert res.estimates[9] == 0.0

    def test_rounds_polylog(self):
        # Theorem 3.8's point: rounds are polylog, unlike exact peeling
        # whose round count grows with the peeling depth.
        edges = GRAPHS["dense"]
        n = len({x for e in edges for x in e})
        res = approx_coreness_static(edges, eps=0.5, delta=0.5)
        budget = (math.log(n) / math.log(1.5) + 1) * (
            math.log(n) / math.log(1.5) + 2
        )
        assert res.rounds <= budget

    def test_work_linearish(self):
        tracker = WorkDepthTracker()
        edges = GRAPHS["er"]
        approx_coreness_static(edges, tracker=tracker)
        assert tracker.work < 200 * len(edges)

    def test_depth_below_exact_on_deep_graphs(self):
        # On a long path, exact peeling needs many rounds; approx does not.
        path = [(i, i + 1) for i in range(500)]
        t_exact = WorkDepthTracker()
        ParallelExactKCore(t_exact).run(path)
        t_approx = WorkDepthTracker()
        approx_coreness_static(path, tracker=t_approx)
        assert t_approx.depth <= t_exact.depth * 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            approx_coreness_static([(0, 1)], eps=0)
        with pytest.raises(ValueError):
            approx_coreness_static([(0, 1)], delta=-1)

    def test_empty_graph(self):
        res = approx_coreness_static([])
        assert res.estimates == {}
        assert res.rounds == 0
