"""Tests for the Sun/Hua/Zhang baseline reimplementations."""

from __future__ import annotations

import random

import pytest

from repro.baselines.hua import HuaExactBatchDynamic
from repro.baselines.sun import SunApproxDynamic
from repro.baselines.traversal import TraversalCoreMaintenance
from repro.baselines.zhang import ZhangExactDynamic
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.graphs.streams import Batch
from repro.static_kcore.exact import exact_coreness


class TestTraversalExactness:
    def test_insert_promotes_subcore(self):
        # Completing a triangle promotes all three vertices to core 2.
        t = TraversalCoreMaintenance()
        t.initialize([(0, 1), (1, 2)])
        assert t.coreness(0) == 1
        t.insert_edge(0, 2)
        assert [t.coreness(v) for v in (0, 1, 2)] == [2, 2, 2]

    def test_delete_demotes(self):
        t = TraversalCoreMaintenance()
        t.initialize([(0, 1), (1, 2), (0, 2)])
        t.delete_edge(0, 1)
        assert [t.coreness(v) for v in (0, 1, 2)] == [1, 1, 1]

    def test_cycle_adversary(self):
        # Paper Section 3: toggling one cycle edge flips every coreness.
        n = 40
        cyc = [(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]
        t = TraversalCoreMaintenance()
        t.initialize(cyc)
        assert all(t.coreness(v) == 2 for v in range(n))
        t.delete_edge(*cyc[0])
        assert all(t.coreness(v) == 1 for v in range(n))
        t.insert_edge(*cyc[0])
        assert all(t.coreness(v) == 2 for v in range(n))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_under_random_churn(self, seed):
        rng = random.Random(seed)
        edges = erdos_renyi(60, 220, seed=seed)
        t = TraversalCoreMaintenance()
        t.initialize(edges[:110])
        current = set(edges[:110])
        pool = list(edges[110:])
        for step in range(120):
            if pool and (not current or rng.random() < 0.55):
                e = pool.pop()
                t.insert_edge(*e)
                current.add(e)
            else:
                e = rng.choice(sorted(current))
                current.discard(e)
                pool.append(e)
                t.delete_edge(*e)
            if step % 40 == 0:
                expected = exact_coreness(sorted(current))
                got = {v: t.coreness(v) for v in expected}
                assert got == expected, step

    def test_new_vertex_insertion(self):
        t = TraversalCoreMaintenance()
        t.initialize([(0, 1)])
        t.insert_edge(1, 99)
        assert t.coreness(99) == 1


class TestZhang:
    def test_batch_update_exact(self):
        edges = barabasi_albert(100, 3, seed=1)
        z = ZhangExactDynamic()
        z.initialize(edges[:150])
        z.update(Batch(insertions=edges[150:250], deletions=edges[:40]))
        expected = exact_coreness(edges[40:250])
        got = {v: z.coreness(v) for v in expected}
        assert got == expected

    def test_sequential_depth_equals_work(self):
        z = ZhangExactDynamic()
        z.initialize(erdos_renyi(50, 150, seed=2))
        z.update(Batch(insertions=[(0, 49)]))
        assert z.tracker.depth == z.tracker.work

    def test_space_positive(self):
        z = ZhangExactDynamic()
        z.initialize([(0, 1)])
        assert z.space_bytes() > 0


class TestHua:
    def test_batch_update_exact(self):
        edges = barabasi_albert(100, 3, seed=4)
        h = HuaExactBatchDynamic()
        h.initialize(edges[:150])
        h.update(Batch(insertions=edges[150:250], deletions=edges[:40]))
        expected = exact_coreness(edges[40:250])
        got = {v: h.coreness(v) for v in expected}
        assert got == expected

    def test_rounds_depth_below_work(self):
        h = HuaExactBatchDynamic()
        h.initialize(erdos_renyi(80, 320, seed=3))
        before = h.tracker.cost
        h.update(Batch(insertions=[(0, 79), (1, 78)]))
        delta_work = h.tracker.work - before.work
        delta_depth = h.tracker.depth - before.depth
        assert delta_depth <= delta_work

    def test_corenesses_dict(self):
        h = HuaExactBatchDynamic()
        h.initialize([(0, 1), (1, 2), (0, 2)])
        assert h.corenesses() == {0: 2, 1: 2, 2: 2}


class TestSun:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            SunApproxDynamic(10, eps=0)

    def test_estimates_bounded_error_insertions(self):
        edges = barabasi_albert(200, 4, seed=5)
        s = SunApproxDynamic(n_hint=200, eps=1.0, lam=1.0)
        s.initialize(edges[:400])
        for i in range(400, len(edges), 50):
            s.update(Batch(insertions=edges[i : i + 50]))
        exact = exact_coreness(edges)
        for v, k in exact.items():
            if k == 0:
                continue
            est = s.coreness_estimate(v)
            assert est > 0
            assert max(est / k, k / est) <= (2 + 1.0) * (1 + 1.0), (v, est, k)

    def test_estimates_bounded_error_deletions(self):
        edges = erdos_renyi(120, 500, seed=6)
        s = SunApproxDynamic(n_hint=120, eps=1.0, lam=1.0)
        s.initialize(edges)
        for i in range(0, 250, 50):
            s.update(Batch(deletions=edges[i : i + 50]))
        exact = exact_coreness(edges[250:])
        for v, k in exact.items():
            if k == 0:
                continue
            est = s.coreness_estimate(v)
            assert est > 0
            assert max(est / k, k / est) <= (2 + 1.0) * (1 + 1.0), (v, est, k)

    def test_repair_matches_full_simulation(self):
        # Incremental worklist repair must land on the same fixpoint the
        # from-scratch elimination simulation computes.
        edges = erdos_renyi(60, 220, seed=7)
        inc = SunApproxDynamic(n_hint=60, eps=1.0, lam=1.0)
        inc.initialize(edges[:110])
        for i in range(110, 220, 20):
            inc.update(Batch(insertions=edges[i : i + 20]))
        scratch = SunApproxDynamic(n_hint=60, eps=1.0, lam=1.0)
        scratch.initialize(edges)
        assert inc.coreness_estimates() == scratch.coreness_estimates()

    def test_isolated_vertex_zero(self):
        s = SunApproxDynamic(n_hint=10)
        s.initialize([(0, 1)])
        s.update(Batch(deletions=[(0, 1)]))
        assert s.coreness_estimate(0) == 0.0

    def test_sequential_depth_equals_work(self):
        s = SunApproxDynamic(n_hint=20)
        s.initialize(erdos_renyi(20, 40, seed=8))
        assert s.tracker.depth == s.tracker.work

    def test_space_positive(self):
        s = SunApproxDynamic(n_hint=20)
        s.initialize([(0, 1)])
        assert s.space_bytes() > 0
