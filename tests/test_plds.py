"""Tests for the parallel level data structure (PLDS) — paper Section 5."""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import combinations

import pytest

from repro.core import plds as plds_module
from repro.core.invariants import approximation_violations, structure_matches_edges
from repro.core.lds import LDS
from repro.core.plds import PLDS, _is_sorted_unique
from repro.graphs.generators import (
    barabasi_albert,
    erdos_renyi,
    grid_2d,
    ring_of_cliques,
)
from repro.graphs.streams import Batch
from repro.static_kcore.exact import exact_coreness

from .conftest import assert_no_violations, build_plds


class TestStructureArithmetic:
    def test_group_number(self):
        p = PLDS(n_hint=100, delta=0.4)
        lpg = p.levels_per_group
        assert p.group_number(0) == 0
        assert p.group_number(lpg - 1) == 0
        assert p.group_number(lpg) == 1

    def test_inv1_bound_grows_geometrically(self):
        p = PLDS(n_hint=100, delta=0.4, lam=3.0)
        lpg = p.levels_per_group
        assert p.inv1_bound(0) == pytest.approx(3.0)
        assert p.inv1_bound(lpg) == pytest.approx(3.0 * 1.4)

    def test_inv2_threshold(self):
        p = PLDS(n_hint=100, delta=0.4)
        lpg = p.levels_per_group
        assert p.inv2_threshold(1) == pytest.approx(1.0)
        assert p.inv2_threshold(lpg + 1) == pytest.approx(1.4)

    def test_top_level_bound_exceeds_n(self):
        p = PLDS(n_hint=1000)
        assert p.inv1_bound(p.num_levels - 1) > 2 * 1000

    def test_group_shrink_reduces_levels(self):
        full = PLDS(n_hint=1000)
        opt = PLDS(n_hint=1000, group_shrink=50)
        assert opt.num_levels < full.num_levels
        assert opt.levels_per_group == max(1, -(-full.levels_per_group // 50))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PLDS(n_hint=10, delta=0)
        with pytest.raises(ValueError):
            PLDS(n_hint=10, lam=-1)
        with pytest.raises(ValueError):
            PLDS(n_hint=10, group_shrink=0)

    def test_approximation_factor(self):
        p = PLDS(n_hint=10, delta=0.4, lam=3.0)
        assert p.approximation_factor() == pytest.approx(4.2)


class TestBasicUpdates:
    def test_empty_structure(self):
        p = PLDS(n_hint=10)
        assert p.num_edges == 0
        assert p.coreness_estimate(3) == 0.0

    def test_single_edge(self):
        p = PLDS(n_hint=10)
        p.update(Batch(insertions=[(0, 1)]))
        assert p.has_edge(0, 1)
        assert p.num_edges == 1
        assert_no_violations(p)

    def test_duplicate_insert_rejected(self):
        p = PLDS(n_hint=10)
        p.update(Batch(insertions=[(0, 1)]))
        with pytest.raises(ValueError):
            p.update(Batch(insertions=[(0, 1)]))

    def test_self_loop_rejected(self):
        p = PLDS(n_hint=10)
        with pytest.raises(ValueError):
            p.update(Batch(insertions=[(2, 2)]))

    def test_delete_missing_rejected(self):
        p = PLDS(n_hint=10)
        with pytest.raises(ValueError):
            p.update(Batch(deletions=[(0, 1)]))

    def test_insert_then_delete_roundtrip(self):
        p = PLDS(n_hint=10)
        p.update(Batch(insertions=[(0, 1), (1, 2)]))
        p.update(Batch(deletions=[(0, 1), (1, 2)]))
        assert p.num_edges == 0
        assert p.coreness_estimate(1) == 0.0
        assert_no_violations(p)

    def test_isolated_vertices_at_level_zero(self):
        p = PLDS(n_hint=10)
        p.insert_vertices([5, 6])
        assert p.level(5) == 0
        assert p.degree(5) == 0

    def test_mixed_batch_order_insertions_first(self):
        # Algorithm 1 applies insertions before deletions.
        p = PLDS(n_hint=10)
        p.update(Batch(insertions=[(0, 1)]))
        p.update(Batch(insertions=[(1, 2)], deletions=[(0, 1)]))
        assert p.has_edge(1, 2)
        assert not p.has_edge(0, 1)
        assert_no_violations(p)


class TestSingleLookup:
    """The batch check's membership step is a batch's only edge lookup
    (one call per non-empty phase), and buffered cascade marks merge into
    exactly the buckets per-mark sorted inserts would build."""

    @pytest.mark.parametrize("cls", [PLDS, LDS], ids=["plds", "lds"])
    def test_valid_batch_looks_each_edge_up_once(self, cls, monkeypatch):
        lookups = []
        calls = []
        lookup_edges = PLDS._lookup_edges
        record = PLDS._record
        has_edge = PLDS.has_edge

        def counting_lookup(self, edges):
            lookups.append(list(edges))
            return lookup_edges(self, edges)

        def counting_record(self, v):
            calls.append(v)
            return record(self, v)

        def counting_has_edge(self, u, v):
            calls.append((u, v))
            return has_edge(self, u, v)

        monkeypatch.setattr(PLDS, "_lookup_edges", counting_lookup)
        monkeypatch.setattr(PLDS, "_record", counting_record)
        monkeypatch.setattr(PLDS, "has_edge", counting_has_edge)
        edges = erdos_renyi(60, 240, seed=5)  # canonical; the first 200
        engine = cls(n_hint=64)               # touch all 60 vertices
        engine.update(Batch(insertions=edges[:200]))
        assert lookups == [edges[:200]]
        # Every endpoint is stored: the check resolves all records, so
        # linking (of reversed pairs too) and unlinking look nothing up.
        calls.clear()
        engine.update(
            Batch(
                insertions=[(v, u) for u, v in edges[200:]],
                deletions=edges[:100],
            )
        )
        assert lookups == [edges[:200], edges[200:], edges[:100]]
        assert calls == []
        assert engine.num_edges == 140
        assert engine.check_invariants() == []

    @pytest.mark.parametrize("strategy", ["levelwise", "jump"])
    def test_buckets_sorted_unique_after_bulk_load(self, strategy, monkeypatch):
        merged = []
        merge = plds_module._merge_marks

        def checked(buckets, marks):
            merged.append(sum(map(len, marks.values())))
            expected = {level: list(ids) for level, ids in buckets.items()}
            for level, ids in marks.items():
                bucket = expected.setdefault(level, [])
                for v in ids:
                    i = bisect_left(bucket, v)
                    if i == len(bucket) or bucket[i] != v:
                        bucket.insert(i, v)
            merge(buckets, marks)
            assert buckets == expected
            assert all(_is_sorted_unique(ids) for ids in buckets.values())
            assert not marks

        edges = barabasi_albert(1000, 4, seed=7)  # power-law degrees
        plds = PLDS(n_hint=1000, insertion_strategy=strategy)
        # A load from empty takes the bulk peel, which keeps no buckets;
        # into a structure holding one edge the level loop runs.
        plds.update(Batch(insertions=edges[:1]))
        monkeypatch.setattr(plds_module, "_merge_marks", checked)
        load = edges[1:]
        plds.update(Batch(insertions=load))
        loads = len(merged)
        plds.update(Batch(deletions=load[: len(load) // 2]))
        assert merged[0] == 2 * len(load)  # every endpoint of the load
        assert sum(merged[loads:]) > 0  # the deletion cascade marked too
        assert_no_violations(plds)


class TestInvariantsUnderChurn:
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1000])
    def test_invariants_after_insertions(self, batch_size):
        plds = build_plds(erdos_renyi(120, 500, seed=2), batch_size=batch_size)
        assert_no_violations(plds, f"batch={batch_size}")

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_invariants_after_deletions(self, batch_size):
        edges = erdos_renyi(120, 500, seed=2)
        plds = build_plds(edges)
        for i in range(0, len(edges), batch_size):
            plds.update(Batch(deletions=edges[i : i + batch_size]))
            assert_no_violations(plds, f"after del batch at {i}")
        assert plds.num_edges == 0

    def test_invariants_random_mixed_churn(self):
        rng = random.Random(0)
        pool = erdos_renyi(80, 350, seed=4)
        plds = PLDS(n_hint=90)
        current: set = set()
        for step in range(25):
            available = [e for e in pool if e not in current]
            ins = rng.sample(available, min(20, len(available)))
            dels = rng.sample(sorted(current), min(10, len(current)))
            plds.update(Batch(insertions=ins, deletions=dels))
            current |= set(ins)
            current -= set(dels)
            assert_no_violations(plds, f"step {step}")
            assert not structure_matches_edges(plds, current)

    def test_structure_bookkeeping_matches_edges(self):
        edges = erdos_renyi(60, 250, seed=6)
        plds = build_plds(edges)
        assert not structure_matches_edges(plds, set(edges))


class TestCorenessApproximation:
    @pytest.mark.parametrize(
        "edges",
        [
            erdos_renyi(150, 700, seed=1),
            barabasi_albert(200, 5, seed=2),
            ring_of_cliques(8, 6),
            grid_2d(12, 12),
        ],
        ids=["er", "ba", "cliques", "grid"],
    )
    def test_estimates_within_factor_after_insertion(self, edges):
        plds = build_plds(edges, batch_size=97)
        exact = exact_coreness(edges)
        violations = approximation_violations(
            plds.coreness_estimates(), exact, plds.approximation_factor()
        )
        assert not violations, violations[:5]

    def test_estimates_within_factor_after_deletions(self):
        edges = erdos_renyi(150, 700, seed=1)
        plds = build_plds(edges)
        dels = edges[:350]
        plds.update(Batch(deletions=dels))
        exact = exact_coreness(edges[350:])
        violations = approximation_violations(
            plds.coreness_estimates(), exact, plds.approximation_factor()
        )
        assert not violations, violations[:5]

    def test_zero_degree_estimates_zero(self):
        plds = build_plds([(0, 1)])
        plds.update(Batch(deletions=[(0, 1)]))
        assert plds.coreness_estimate(0) == 0.0

    def test_batch_size_does_not_change_guarantee(self):
        edges = barabasi_albert(150, 4, seed=8)
        exact = exact_coreness(edges)
        for bs in (1, 10, len(edges)):
            plds = build_plds(edges, batch_size=bs)
            violations = approximation_violations(
                plds.coreness_estimates(), exact, plds.approximation_factor()
            )
            assert not violations, (bs, violations[:3])

    def test_cycle_adversary(self):
        # The paper's Section-3 adversarial example: removing/re-adding an
        # edge of a cycle flips all coreness values between 1 and 2.
        n = 60
        cycle = [(i, (i + 1) % n) for i in range(n)]
        cycle = [(min(u, v), max(u, v)) for u, v in cycle]
        plds = build_plds(cycle)
        for _ in range(10):
            plds.update(Batch(deletions=[cycle[0]]))
            exact = exact_coreness(cycle[1:])
            assert not approximation_violations(
                plds.coreness_estimates(), exact, plds.approximation_factor()
            )
            plds.update(Batch(insertions=[cycle[0]]))
            exact = exact_coreness(cycle)
            assert not approximation_violations(
                plds.coreness_estimates(), exact, plds.approximation_factor()
            )
            assert_no_violations(plds)

    def test_pldsopt_estimates_reasonable(self):
        edges = barabasi_albert(200, 5, seed=3)
        plds = build_plds(edges, group_shrink=50)
        exact = exact_coreness(edges)
        # PLDSOpt forfeits the formal proof; empirically its error stays
        # within the paper's observed range (max 3-6, Section 6.6).
        violations = approximation_violations(
            plds.coreness_estimates(), exact, factor=8.0
        )
        assert not violations, violations[:5]


class TestOrientation:
    def test_orient_low_to_high_level(self):
        plds = build_plds(erdos_renyi(100, 400, seed=5), track_orientation=True)
        for u, v in plds.edges():
            tail, head = plds.orientation_of(u, v)
            lt, lh = plds.level(tail), plds.level(head)
            assert lt < lh or (lt == lh and tail < head)

    def test_out_neighbors_consistent_with_orientation(self):
        plds = build_plds(erdos_renyi(80, 300, seed=5), track_orientation=True)
        for v in plds.vertices():
            for w in plds.out_neighbors(v):
                assert plds.orientation_of(v, w) == (v, w)

    def test_flips_reported_track_orientation_table(self):
        edges = erdos_renyi(80, 300, seed=5)
        plds = PLDS(n_hint=80, track_orientation=True)
        mirror: dict = {}
        rng = random.Random(1)
        order = list(edges)
        rng.shuffle(order)
        for i in range(0, len(order), 30):
            res = plds.update(Batch(insertions=order[i : i + 30]))
            for tail, head in res.oriented_insertions:
                mirror[(min(tail, head), max(tail, head))] = (tail, head)
            for tail, head in res.flipped:
                e = (min(tail, head), max(tail, head))
                assert mirror[e] == (tail, head), "flip reports stale direction"
                mirror[e] = (head, tail)
        # Mirror must now equal the live orientation.
        for u, v in plds.edges():
            assert mirror[(u, v)] == plds.orientation_of(u, v)

    def test_deletion_reports_pre_batch_orientation(self):
        plds = PLDS(n_hint=10, track_orientation=True)
        plds.update(Batch(insertions=[(0, 1), (1, 2), (0, 2)]))
        before = {e: plds.orientation_of(*e) for e in [(0, 1)]}
        res = plds.update(Batch(deletions=[(0, 1)]))
        assert res.oriented_deletions == [before[(0, 1)]]

    def test_moved_vertices_reported(self):
        plds = PLDS(n_hint=30, track_orientation=True)
        clique = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        res = plds.update(Batch(insertions=clique))
        assert res.moved_vertices  # a clique forces vertices off level 0


class TestVertexUpdates:
    def test_delete_vertex_removes_incident_edges(self):
        plds = PLDS(n_hint=10, track_orientation=True)
        plds.update(Batch(insertions=[(0, 1), (0, 2), (1, 2)]))
        plds.delete_vertices([0])
        assert not plds.has_edge(0, 1)
        assert plds.has_edge(1, 2)
        assert_no_violations(plds)

    def test_delete_adjacent_vertices(self):
        plds = PLDS(n_hint=10)
        plds.update(Batch(insertions=[(0, 1), (1, 2), (2, 3)]))
        plds.delete_vertices([1, 2])
        assert plds.num_edges == 0

    def test_rebuild_on_overflow(self):
        plds = PLDS(n_hint=4)
        edges = erdos_renyi(40, 100, seed=9)
        plds.update(Batch(insertions=edges))
        assert plds.n_hint >= 40
        assert_no_violations(plds)
        exact = exact_coreness(edges)
        assert not approximation_violations(
            plds.coreness_estimates(), exact, plds.approximation_factor()
        )


class TestMidBatchRebuild:
    """A rise past the top level rebuilds mid-batch, which replaces every
    record: the batch's remaining edges must be resolved against the
    rebuilt records, not the pairs the check resolved before it."""

    # (work, depth) of the two batches below, unchanged from before the
    # check resolved record pairs.
    PLDS_COST = {"levelwise": (2813402, 4794), "jump": (1652025, 12979)}

    @pytest.mark.parametrize("strategy", ["levelwise", "jump"])
    @pytest.mark.parametrize("cls", [PLDS, LDS], ids=["plds", "lds"])
    def test_deletion_after_overflow_uses_rebuilt_records(self, cls, strategy):
        engine = cls(n_hint=8, insertion_strategy=strategy)
        engine.update(Batch(insertions=[(100, 101), (101, 102)]))
        clique = list(combinations(range(60), 2))
        engine.update(Batch(insertions=clique, deletions=[(100, 101)]))
        assert engine.n_hint > 8  # the clique overflowed the table
        assert engine.num_edges == 1771
        assert engine.check_invariants() == []
        assert not engine.has_edge(100, 101) and engine.has_edge(101, 102)
        assert [engine.degree(v) for v in (100, 101, 102)] == [0, 1, 1]
        if cls is PLDS:
            assert engine.level_histogram() == {0: 3, 540: 60}
            tracker = engine.tracker
            assert (tracker.work, tracker.depth) == self.PLDS_COST[strategy]

    @pytest.mark.parametrize("strategy", ["levelwise", "jump"])
    @pytest.mark.parametrize("cls", [PLDS, LDS], ids=["plds", "lds"])
    def test_orientation_drops_deleted_edge_after_overflow(self, cls, strategy):
        # The rebuild's replay orients every live edge, the batch's
        # deletions included; H must still end equal to the edge set.
        engine = cls(n_hint=8, insertion_strategy=strategy, track_orientation=True)
        plain = cls(n_hint=8, insertion_strategy=strategy)
        clique = list(combinations(range(60), 2))
        batches = [
            Batch(insertions=[(100, 101), (101, 102)]),
            Batch(insertions=clique, deletions=[(100, 101)]),
        ]
        plain.update(batches[0])
        plain.update(batches[1])
        engine.update(batches[0])
        before = engine._orient[(100, 101)]
        result = engine.update(batches[1])
        assert engine.n_hint > 8  # the clique overflowed the table
        assert result.oriented_deletions == [before]
        assert set(engine._orient) == set(engine.edges())
        assert engine._orient == {
            e: engine.orientation_of(*e) for e in engine.edges()
        }
        # 24 bytes per key of H, and no key for the deleted edge.
        assert engine.space_bytes() == plain.space_bytes() + 24 * 1771


class TestMetering:
    def test_work_scales_with_batch(self):
        edges = erdos_renyi(100, 400, seed=2)
        small = build_plds(edges, batch_size=10)
        big = build_plds(edges, batch_size=400)
        # Same total updates; total work should be within a small factor.
        assert small.tracker.work < 20 * big.tracker.work
        assert big.tracker.work < 20 * small.tracker.work

    def test_depth_is_much_smaller_than_work(self):
        plds = build_plds(erdos_renyi(150, 700, seed=2), batch_size=700)
        assert plds.tracker.depth < plds.tracker.work / 5

    def test_space_accounting_positive_and_bounded(self):
        edges = erdos_renyi(100, 400, seed=2)
        plds = build_plds(edges)
        space = plds.space_bytes()
        assert space >= 8 * 2 * len(edges)
        assert space < 10_000 * len(edges)


class TestHeuristicParameters:
    def test_heuristic_coeff_reduces_error(self):
        # The paper's heuristic parameters replace (2+3/lambda) with 1.1
        # trading guarantees for empirically tighter estimates.
        edges = barabasi_albert(200, 5, seed=11)
        exact = exact_coreness(edges)

        def avg_error(plds):
            tot = cnt = 0
            for v, k in exact.items():
                if k == 0:
                    continue
                est = plds.coreness_estimate(v)
                tot += max(est / k, k / est)
                cnt += 1
            return tot / cnt

        normal = build_plds(edges)
        heuristic = build_plds(edges, upper_coeff=1.1)
        assert_no_violations(heuristic)
        assert avg_error(heuristic) <= avg_error(normal) + 0.2
