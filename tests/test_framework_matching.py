"""Tests for batch-dynamic maximal matching (Section 9)."""

from __future__ import annotations

import random

from repro.framework import create_matching_driver, static_maximal_matching
from repro.graphs.generators import erdos_renyi, ring_of_cliques
from repro.graphs.streams import Batch


class TestStaticMaximalMatching:
    def test_is_matching(self, tracker):
        edges = erdos_renyi(50, 200, seed=1)
        m = static_maximal_matching(tracker, edges, seed=0)
        used: set[int] = set()
        for u, v in m:
            assert u not in used and v not in used
            used.update((u, v))

    def test_is_maximal(self, tracker):
        edges = erdos_renyi(50, 200, seed=1)
        m = static_maximal_matching(tracker, edges, seed=0)
        matched = {x for e in m for x in e}
        for u, v in edges:
            assert u in matched or v in matched

    def test_forbidden_vertices_excluded(self, tracker):
        m = static_maximal_matching(tracker, [(0, 1), (1, 2)], forbidden=[1])
        assert m == set()

    def test_empty(self, tracker):
        assert static_maximal_matching(tracker, []) == set()

    def test_deterministic_for_seed(self, tracker):
        edges = erdos_renyi(40, 120, seed=2)
        a = static_maximal_matching(tracker, edges, seed=5)
        b = static_maximal_matching(tracker, edges, seed=5)
        assert a == b

    def test_single_edge(self, tracker):
        assert static_maximal_matching(tracker, [(3, 7)]) == {(3, 7)}


class TestDynamicMatching:
    def test_insert_only(self):
        driver, m = create_matching_driver(n_hint=60)
        edges = erdos_renyi(50, 150, seed=3)
        for i in range(0, len(edges), 30):
            driver.update(Batch(insertions=edges[i : i + 30]))
            assert not m.violations()

    def test_delete_only(self):
        driver, m = create_matching_driver(n_hint=60)
        edges = erdos_renyi(50, 150, seed=3)
        driver.update(Batch(insertions=edges))
        for i in range(0, len(edges), 25):
            driver.update(Batch(deletions=edges[i : i + 25]))
            assert not m.violations()
        assert m.matching() == set()

    def test_mixed_churn(self):
        rng = random.Random(0)
        pool = erdos_renyi(60, 250, seed=4)
        driver, m = create_matching_driver(n_hint=70)
        current: set = set()
        for step in range(20):
            avail = [e for e in pool if e not in current]
            ins = rng.sample(avail, min(18, len(avail)))
            dels = rng.sample(sorted(current), min(9, len(current)))
            driver.update(Batch(insertions=ins, deletions=dels))
            current |= set(ins)
            current -= set(dels)
            assert not m.violations(), step

    def test_matched_edge_deletion_rematches(self):
        # A star: deleting the matched edge must rematch the center.
        driver, m = create_matching_driver(n_hint=10)
        driver.update(Batch(insertions=[(0, 1), (0, 2), (0, 3)]))
        (a, b), = m.matching()
        assert 0 in (a, b)
        driver.update(Batch(deletions=[(a, b)]))
        assert not m.violations()
        assert m.is_matched(0)

    def test_matching_grows_with_disjoint_edges(self):
        driver, m = create_matching_driver(n_hint=20)
        driver.update(Batch(insertions=[(0, 1), (2, 3), (4, 5)]))
        assert len(m.matching()) == 3

    def test_single_batch_full_graph(self):
        edges = ring_of_cliques(5, 6)
        driver, m = create_matching_driver(n_hint=40)
        driver.update(Batch(insertions=edges))
        assert not m.violations()
        # a maximal matching in 5 disjoint 6-cliques has >= 2 edges/clique
        assert len(m.matching()) >= 10

    def test_work_scales_with_batch_not_graph(self):
        edges = erdos_renyi(200, 800, seed=5)
        driver, m = create_matching_driver(n_hint=210)
        driver.update(Batch(insertions=edges[:790]))
        before = driver.tracker.work
        driver.update(Batch(insertions=edges[790:]))
        small_batch_work = driver.tracker.work - before
        assert small_batch_work < before / 4

    def test_space_positive(self):
        driver, m = create_matching_driver(n_hint=10)
        driver.update(Batch(insertions=[(0, 1)]))
        assert m.space_bytes() > 0

    def test_is_matched_api(self):
        driver, m = create_matching_driver(n_hint=10)
        driver.update(Batch(insertions=[(0, 1)]))
        assert m.is_matched(0) and m.is_matched(1)
        assert not m.is_matched(5)
