"""Tests for the batch-serving layer (`repro.service.CoreService`)."""

from __future__ import annotations

import pytest

from repro.core.plds import PLDS
from repro.graphs.generators import barabasi_albert
from repro.graphs.streams import Batch, EdgeUpdate, insertion_batches
from repro.parallel.scheduler import BrentScheduler
from repro.service import CoreService
from repro.static_kcore.exact import exact_coreness

EDGES = barabasi_albert(120, 3, seed=5)
BATCHES = insertion_batches(EDGES, 60, seed=0)


def _loaded_service(algorithm: str = "plds", **kwargs) -> CoreService:
    svc = CoreService(algorithm, n_hint=130, **kwargs)
    for b in BATCHES:
        svc.apply_batch(b)
    return svc


class TestBatchApply:
    def test_round_trip_agrees_with_direct_plds(self):
        """Service-applied batches match a hand-driven PLDS bit-for-bit:
        same coreness estimates and same metered (work, depth) deltas."""
        svc = CoreService("plds", n_hint=130)
        plds = PLDS(n_hint=130)
        for batch in BATCHES:
            before = plds.tracker.cost
            plds.update(batch)
            delta = plds.tracker.delta(before)
            t = svc.apply_batch(batch)
            assert (t.work, t.depth) == (delta.work, delta.depth)
            assert svc.coreness_map() == plds.coreness_estimates()

    def test_mirror_tracks_graph(self):
        svc = _loaded_service()
        assert svc.num_edges == len(EDGES)
        assert svc.has_edge(*EDGES[0])
        svc.apply_batch(Batch(deletions=[EDGES[0]]))
        assert not svc.has_edge(*EDGES[0])
        assert svc.num_edges == len(EDGES) - 1

    def test_raw_updates_are_preprocessed(self):
        svc = CoreService("plds", n_hint=20)
        t = svc.apply_updates([
            EdgeUpdate(0, 1, True, timestamp=0),
            EdgeUpdate(1, 0, True, timestamp=1),    # duplicate edge: collapsed
            EdgeUpdate(2, 3, True, timestamp=0),
            EdgeUpdate(2, 3, False, timestamp=1),   # latest wins: no-op overall
            EdgeUpdate(4, 4, True, timestamp=0),    # self-loop: dropped
            EdgeUpdate(5, 6, False, timestamp=0),   # delete of absent edge
        ])
        assert (t.insertions, t.deletions) == (1, 0)
        assert svc.has_edge(0, 1) and not svc.has_edge(2, 3)

    def test_invalid_explicit_batch_leaves_state_untouched(self):
        svc = CoreService("plds", n_hint=20)
        svc.apply_batch(Batch(insertions=[(0, 1)]))
        with pytest.raises(ValueError):
            svc.apply_batch(Batch(insertions=[(0, 1)]))  # duplicate edge
        assert svc.num_edges == 1
        assert svc.batches_applied == 1
        assert len(svc.journal) == 1  # rejected before journaling


class TestTelemetry:
    def test_per_batch_fields(self):
        svc = _loaded_service(threads=60)
        assert len(svc.telemetry) == len(BATCHES)
        for i, t in enumerate(svc.telemetry, start=1):
            assert t.batch_id == i
            assert t.work > 0 and t.depth > 0
            assert t.wall_seconds >= 0
            assert t.threads == 60
            assert t.t_p == pytest.approx(t.work / 60 + t.depth)
        total = svc.total_cost
        assert total.work == sum(t.work for t in svc.telemetry)

    def test_sequential_engine_reads_time_at_one_thread(self):
        svc = CoreService("lds", n_hint=130, threads=60)
        t = svc.apply_batch(BATCHES[0])
        assert t.threads == 1
        assert t.t_p == pytest.approx(t.work + t.depth)

    def test_custom_scheduler(self):
        sched = BrentScheduler(hyperthread_cores=30, hyperthread_yield=0.5)
        svc = CoreService("plds", n_hint=130, threads=60, scheduler=sched)
        t = svc.apply_batch(BATCHES[0])
        assert t.t_p == pytest.approx(t.work / 45 + t.depth)


class TestQueries:
    def test_coreness_matches_map(self):
        svc = _loaded_service()
        cmap = svc.coreness_map()
        for v in list(cmap)[:10]:
            assert svc.coreness(v) == cmap[v]
        assert svc.coreness(10**9) == 0.0

    @pytest.mark.query
    def test_core_members_superset_of_true_core(self):
        svc = _loaded_service()
        truth = exact_coreness(EDGES)
        k = max(truth.values())
        true_core = {v for v, c in truth.items() if c >= k}
        assert true_core <= svc.core_members(k)

    def test_core_subgraph_is_exact(self):
        svc = _loaded_service()
        truth = exact_coreness(EDGES)
        k = max(truth.values())
        vs, sub_edges = svc.core_subgraph(k)
        assert vs == {v for v, c in truth.items() if c >= k}
        assert all(u in vs and v in vs for u, v in sub_edges)

    @pytest.mark.query
    def test_exact_engine_core_members(self):
        svc = _loaded_service("zhang")
        truth = exact_coreness(EDGES)
        assert svc.core_members(2) == {v for v, c in truth.items() if c >= 2}


class TestSnapshots:
    def test_snapshot_reads_stay_consistent_while_batches_apply(self):
        svc = CoreService("plds", n_hint=130)
        svc.apply_batch(BATCHES[0])
        snap = svc.snapshot()
        frozen = snap.coreness_map()
        for b in BATCHES[1:]:
            svc.apply_batch(b)
        assert snap.coreness_map() == frozen
        assert snap.batches_applied == 1
        assert len(snap.edges) == len(BATCHES[0].insertions)

    def test_restore_plds_is_bit_identical(self):
        svc = _loaded_service("plds")
        snap = svc.snapshot()
        assert snap.engine_state is not None  # exact structural snapshot
        svc.apply_batch(Batch(deletions=list(EDGES[:250])))
        assert svc.coreness_map() != snap.coreness_map()
        svc.restore(snap)
        assert svc.coreness_map() == snap.coreness_map()
        assert svc.num_edges == len(snap.edges)
        assert svc.batches_applied == snap.batches_applied
        # The restored engine's own snapshot reproduces the stored state.
        assert svc.snapshot().engine_state == snap.engine_state

    def test_restore_by_replay_for_exact_engine(self):
        svc = _loaded_service("zhang")
        snap = svc.snapshot()
        assert snap.engine_state is None  # no structural snapshot: replay
        svc.apply_batch(Batch(deletions=list(EDGES[:30])))
        svc.restore(snap)
        assert svc.coreness_map() == snap.coreness_map()

    def test_restore_rejects_foreign_snapshot(self):
        svc = CoreService("plds", n_hint=130)
        other = CoreService("zhang", n_hint=130)
        other.apply_batch(Batch(insertions=[(0, 1)]))
        with pytest.raises(ValueError, match="zhang"):
            svc.restore(other.snapshot())

    def test_snapshot_ids_increment(self):
        svc = CoreService("plds", n_hint=16)
        assert [svc.snapshot().snapshot_id for _ in range(3)] == [1, 2, 3]


class TestApplicationHosting:
    def test_matching_app_served(self):
        svc = CoreService(application="matching", n_hint=64)
        svc.apply_batch(Batch(insertions=[(0, 1), (1, 2), (3, 4)]))
        assert sorted(svc.application.matching()) == [(0, 1), (3, 4)]
        assert svc.coreness(0) >= 1.0
        assert svc.telemetry[0].work > 0

    def test_cliques_app_served(self):
        svc = CoreService(application="cliques", n_hint=64, k=3)
        svc.apply_batch(Batch(insertions=[(0, 1), (1, 2), (0, 2)]))
        assert svc.application.count == 1

    def test_application_restore_replays(self):
        svc = CoreService(application="matching", n_hint=64)
        svc.apply_batch(Batch(insertions=[(0, 1), (1, 2), (3, 4)]))
        snap = svc.snapshot()
        svc.apply_batch(Batch(insertions=[(5, 6)]))
        svc.restore(snap)
        assert svc.num_edges == 3
        # The replayed app is again a maximal matching of the same graph.
        matched = sorted(svc.application.matching())
        assert matched == [(0, 1), (3, 4)] or matched == [(1, 2), (3, 4)]


class TestGoldenDispatchParity:
    """The registry dispatch path is observationally identical to direct
    construction — the same guarantee tests/test_golden_parity.py pins
    for the structures themselves."""

    def test_adapter_and_direct_plds_costs_match(self):
        from repro.registry import make_adapter

        adapter = make_adapter("plds", n_hint=130)
        plds = PLDS(n_hint=130)
        for b in BATCHES:
            adapter.update(b)
            plds.update(b)
        assert adapter.estimates() == plds.coreness_estimates()
        assert adapter.cost == plds.tracker.cost
