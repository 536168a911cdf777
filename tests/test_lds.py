"""Tests for the sequential LDS baseline (paper Section 5.2)."""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core.invariants import approximation_violations
from repro.core.lds import LDS
from repro.graphs.generators import erdos_renyi, ring_of_cliques
from repro.graphs.streams import Batch
from repro.static_kcore.exact import exact_coreness

from .conftest import assert_no_violations


def build_lds(edges, **kwargs):
    lds = LDS(n_hint=max(max(e) for e in edges) + 1, **kwargs)
    for e in edges:
        lds.update(Batch(insertions=[e]))
    return lds


class TestLDSInvariants:
    def test_invariants_after_insertions(self):
        lds = build_lds(erdos_renyi(80, 320, seed=1))
        assert_no_violations(lds)

    def test_invariants_after_deletions(self):
        edges = erdos_renyi(80, 320, seed=1)
        lds = build_lds(edges)
        for e in edges[:160]:
            lds.update(Batch(deletions=[e]))
        assert_no_violations(lds)

    def test_batched_updates_accepted(self):
        # LDS accepts batches for interface parity; processes sequentially.
        edges = erdos_renyi(50, 150, seed=2)
        lds = LDS(n_hint=51)
        lds.update(Batch(insertions=edges))
        assert_no_violations(lds)
        assert lds.num_edges == 150


class TestLDSApproximation:
    def test_estimates_within_factor(self):
        edges = ring_of_cliques(6, 6)
        lds = build_lds(edges)
        exact = exact_coreness(edges)
        assert not approximation_violations(
            lds.coreness_estimates(), exact, lds.approximation_factor()
        )

    def test_matches_plds_estimates_on_same_input(self):
        # Same invariants, same estimate rule: LDS and PLDS may settle on
        # different levels, but both must satisfy the same guarantee.
        from .conftest import build_plds

        edges = erdos_renyi(80, 320, seed=3)
        exact = exact_coreness(edges)
        lds = build_lds(edges)
        plds = build_plds(edges)
        factor = lds.approximation_factor()
        assert not approximation_violations(lds.coreness_estimates(), exact, factor)
        assert not approximation_violations(plds.coreness_estimates(), exact, factor)


class TestLDSCost:
    def test_depth_equals_workish(self):
        # Sequential structure: metered depth tracks metered work closely.
        lds = build_lds(erdos_renyi(60, 240, seed=4))
        assert lds.tracker.depth > lds.tracker.work / 3

    def test_deletion_cascades_cost_more_than_plds(self):
        # Fig. 4's point: one-level-at-a-time cascades redo work that the
        # PLDS's single-shot desire-level moves avoid.
        from .conftest import build_plds

        edges = ring_of_cliques(10, 8)
        lds = build_lds(edges)
        plds = build_plds(edges, batch_size=len(edges))
        lds_before = lds.tracker.work
        plds_before = plds.tracker.work
        dels = edges[: len(edges) // 2]
        for e in dels:
            lds.update(Batch(deletions=[e]))
        plds.update(Batch(deletions=dels))
        lds_work = lds.tracker.work - lds_before
        plds_work = plds.tracker.work - plds_before
        assert plds_work < lds_work * 3  # PLDS is not asymptotically worse

    def test_orientation_supported(self):
        edges = erdos_renyi(40, 120, seed=5)
        lds = LDS(n_hint=41, track_orientation=True)
        res = lds.update(Batch(insertions=edges))
        assert len(res.oriented_insertions) == len(edges)


class TestLevelTableOverflow:
    """A cascade past the top level rebuilds on a doubled table, as in
    PLDS, instead of raising ``IndexError`` from the level table."""

    @pytest.mark.parametrize("strategy", ["levelwise", "jump"])
    def test_clique_past_the_top_level_commits(self, strategy):
        lds = LDS(n_hint=2, insertion_strategy=strategy)
        assert lds._inv1_bound_int[-1] < 49  # the 50-clique's degree
        clique = list(combinations(range(50), 2))
        lds.update(Batch(insertions=clique))
        assert lds.n_hint >= 100
        assert lds.num_edges == len(clique)
        assert lds.last_moved is None  # a rebuild re-levels everything
        assert_no_violations(lds)
        est = lds.coreness_estimates()
        factor = lds.approximation_factor()
        assert all(49 / factor <= est[v] <= 49 * factor for v in range(50))
