"""Sharded serving stack: parity, isolation, and reconciliation tests.

The headline correctness bar of the sharding PR: the partitioned engine's
coreness estimates must be **bit-identical** to the single-structure PLDS
on every golden-parity workload, for every shard count — the confluence
of the cascade's least/greatest-fixpoint iterations makes the shard
decomposition observationally invisible.  Beyond parity, this module
locks the fault-isolation ladder (a ``shard.apply`` fault rolls back only
the affected shard), the per-round span reconciliation (coordinator round
work == sum of shard work + ghost-exchange messages), snapshot round
trips, and the partitioner's ownership algebra.
"""

from __future__ import annotations

import json

import pytest

from repro.core.plds import PLDS
from repro.faults import FaultPlan, FaultPoint, active
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.streams import Batch
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.tracing import Tracer, iter_spans, tracing
from repro.registry import algorithm_spec, make_adapter
from repro.shard import Coordinator, Partitioner

from .test_golden_parity import _stream

pytestmark = pytest.mark.shard

_N_HINT = 100
_SHARD_COUNTS = (1, 2, 4, 7)


def _configs() -> dict[str, dict]:
    return {
        "levelwise": {},
        "jump": {"insertion_strategy": "jump"},
        "pldsopt": {"group_shrink": 50, "insertion_strategy": "jump"},
    }


def _degrees(graph: DynamicGraph) -> dict[int, int]:
    return {v: graph.degree(v) for v in graph.vertices()}


def _run_mono(n_hint: int = _N_HINT, **kwargs) -> PLDS:
    plds = PLDS(n_hint=n_hint, **kwargs)
    for b in _stream():
        plds.update(b)
    return plds


def _run_sharded(shards: int, n_hint: int = _N_HINT, **kwargs) -> Coordinator:
    coord = Coordinator(n_hint, shards=shards, **kwargs)
    for b in _stream():
        coord.update(b)
    return coord


# ----------------------------------------------------------------------
# Parity: the acceptance bar
# ----------------------------------------------------------------------


class TestGoldenParity:
    @pytest.mark.parametrize("config", sorted(_configs()))
    @pytest.mark.parametrize("shards", _SHARD_COUNTS)
    def test_bit_identical_estimates(self, config: str, shards: int) -> None:
        kwargs = _configs()[config]
        mono = _run_mono(**kwargs)
        coord = _run_sharded(shards, **kwargs)
        assert coord.coreness_estimates() == mono.coreness_estimates(), (
            f"{config} diverged at {shards} shards"
        )
        assert coord.num_edges == mono.num_edges
        assert sorted(coord.edges()) == sorted(mono.edges())

    @pytest.mark.parametrize("shards", _SHARD_COUNTS)
    def test_rebuild_parity(self, shards: int) -> None:
        # Small n_hint forces engine-coordinated rebuilds mid-stream; the
        # rebuilt kernels must stay on the monolithic trajectory.
        mono = _run_mono(n_hint=32)
        coord = _run_sharded(shards, n_hint=32)
        assert coord.coreness_estimates() == mono.coreness_estimates()
        assert coord.n_hint == mono.n_hint

    def test_degree_balanced_parity(self) -> None:
        batches = _stream()
        initial = list(batches[0].insertions)
        mono = PLDS(n_hint=_N_HINT)
        mono.update(Batch(insertions=initial))
        coord = Coordinator(_N_HINT, shards=4, partition="degree")
        coord.initialize(initial)
        for b in batches[1:]:
            mono.update(b)
            coord.update(b)
        assert coord.coreness_estimates() == mono.coreness_estimates()
        assert coord.partitioner.kind == "degree"

    @pytest.mark.parametrize("shards", _SHARD_COUNTS)
    def test_invariants_clean(self, shards: int) -> None:
        coord = _run_sharded(shards)
        assert coord.check_invariants() == []

    def test_metering_deterministic(self) -> None:
        a = _run_sharded(4)
        b = _run_sharded(4)
        assert (a.tracker.work, a.tracker.depth) == (
            b.tracker.work,
            b.tracker.depth,
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_dense_bulk_deletes_track_monolithic(self, shards: int) -> None:
        # Cross-shard desaturation: a ghost replayed downward weakens its
        # local neighbors, which must re-check Invariant 2 then
        # (``ShardKernel.apply_moves``).  The golden stream is too sparse
        # to need it; without it, this dense graph deleted in large
        # batches diverges from the monolithic estimates by batch 5.
        edges = erdos_renyi(60, 1200, seed=3)
        mono = PLDS(n_hint=_N_HINT)
        coord = Coordinator(_N_HINT, shards=shards)
        batches = [Batch(insertions=edges)] + [
            Batch(deletions=edges[i : i + 150]) for i in range(0, 1050, 150)
        ]
        for i, b in enumerate(batches):
            mono.update(b)
            coord.update(b)
            assert coord.coreness_estimates() == mono.coreness_estimates(), (
                f"batch {i} diverged at {shards} shards"
            )
        assert coord.check_invariants() == []


# ----------------------------------------------------------------------
# Partitioner ownership algebra + io round trip
# ----------------------------------------------------------------------


class TestPartitioner:
    def test_every_edge_has_exactly_one_owner(self) -> None:
        part = Partitioner(4)
        edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        for u, v in edges:
            owner = part.owner(min(u, v))
            assert owner == part.owner(min(v, u))
            assert 0 <= owner < 4

    def test_hash_fallback_and_assignment_overlay(self) -> None:
        part = Partitioner(3, assignment={7: 2})
        assert part.owner(7) == 2          # pinned
        assert part.owner(8) == 8 % 3      # fallback
        assert part.assignment_items() == [[7, 2]]

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            Partitioner(0)
        with pytest.raises(ValueError):
            Partitioner(2, kind="range")
        with pytest.raises(ValueError):
            Partitioner(2, assignment={1: 5})
        with pytest.raises(ValueError):
            Coordinator(10, shards=2, partition="range")

    def test_degree_balanced_spreads_load(self) -> None:
        # A star graph: LPT must put the hub alone-ish, not with spokes.
        edges = [(0, i) for i in range(1, 13)]
        g = DynamicGraph(edges)
        part = Partitioner.degree_balanced(_degrees(g), 3)
        loads = [0, 0, 0]
        for v in g.vertices():
            loads[part.owner(v)] += g.degree(v)
        assert max(loads) - min(loads) <= g.max_degree()

    def test_io_partition_round_trip(self, tmp_path) -> None:
        batches = _stream()
        live: set[tuple[int, int]] = set()
        for b in batches[:5]:
            live |= set(b.insertions)
            live -= set(b.deletions)
        path = tmp_path / "graph.txt"
        write_edge_list(path, sorted(live))
        edges = read_edge_list(path)
        assert sorted(edges) == sorted(live)

        part = Partitioner.degree_balanced(_degrees(DynamicGraph(edges)), 4)
        # Exactly one owner shard per edge: counting each edge at its
        # owner covers the edge set with no duplicates.
        owned: dict[int, list] = {s: [] for s in range(4)}
        for u, v in edges:
            owned[part.owner(min(u, v))].append((u, v))
        flat = [e for group in owned.values() for e in group]
        assert sorted(flat) == sorted(edges)

        # Feed the same graph through the coordinator: no vertex may be
        # a ghost replica on the shard that owns it.
        coord = Coordinator(_N_HINT, shards=4)
        coord.update(Batch(insertions=sorted(edges)))
        for s, kernel in enumerate(coord.kernels):
            for v in kernel._ghosts:
                assert coord.partitioner.owner(v) != s, (
                    f"vertex {v} is a ghost on its owner shard {s}"
                )
            for v in kernel._vertices:
                assert coord.partitioner.owner(v) == s


# ----------------------------------------------------------------------
# Boundary validation: rejected before any shard mutates
# ----------------------------------------------------------------------


class TestBoundaryValidation:
    def _fresh(self) -> Coordinator:
        coord = Coordinator(_N_HINT, shards=4)
        coord.update(Batch(insertions=[(0, 1), (1, 2), (2, 3)]))
        return coord

    def _state(self, coord: Coordinator) -> list:
        return [
            (sorted(k._vertices), sorted(k.edges()), k._m)
            for k in coord.kernels
        ]

    @pytest.mark.parametrize(
        "batch",
        [
            Batch(insertions=[(4, 5), (-1, 6)]),          # negative id
            Batch(deletions=[(0, -2)]),                   # negative id
            Batch(insertions=[(4, 5), (5, 4)]),           # duplicate insert
            Batch(insertions=[(0, 1)]),                   # already present
            Batch(deletions=[(0, 3)]),                    # not present
            Batch(deletions=[(0, 1), (1, 0)]),            # duplicate delete
            Batch(insertions=[(7, 8)], deletions=[(7, 8)]),  # overlap
            Batch(insertions=[(4, 4), (4, 5)]),           # self-loop
        ],
    )
    def test_bad_batch_rejected_before_any_shard_mutates(self, batch) -> None:
        coord = self._fresh()
        before = self._state(coord)
        with pytest.raises(ValueError):
            coord.update(batch)
        assert self._state(coord) == before
        assert coord.check_invariants() == []


# ----------------------------------------------------------------------
# Fault isolation: shard.apply rolls back only the affected shard
# ----------------------------------------------------------------------


class TestShardFaultIsolation:
    def test_fault_recovers_bit_identical(self) -> None:
        clean = _run_sharded(4)
        plan = FaultPlan([FaultPoint("shard.apply", 2)])
        registry = MetricsRegistry()
        coord = Coordinator(_N_HINT, shards=4)
        with active(plan), collecting(registry):
            for b in _stream():
                coord.update(b)
        assert any(fp.site == "shard.apply" for fp in plan.fired)
        assert coord.coreness_estimates() == clean.coreness_estimates()
        assert coord.check_invariants() == []
        # Exactly the faulted shards rolled back — one rollback per fire.
        rollbacks = sum(
            registry.counter_value("shard.rollbacks", shard=str(s))
            for s in range(4)
        )
        fired = sum(1 for fp in plan.fired if fp.site == "shard.apply")
        assert rollbacks == fired >= 1

    def test_other_shards_keep_state_across_rollback(self) -> None:
        coord = Coordinator(_N_HINT, shards=4)
        coord.update(Batch(insertions=[(0, 1), (2, 3), (5, 6), (8, 9)]))
        kernels = coord.kernels
        before = [
            (dict.fromkeys(k._vertices), sorted(k.edges())) for k in kernels
        ]
        before_levels = [
            {v: k.level(v) for v in k._vertices} for k in kernels
        ]
        # One fault on the very next shard.apply hit: the scatter visits
        # shards in order, so shard 0 faults while 1..3 are untouched.
        plan = FaultPlan([FaultPoint("shard.apply", 1)])
        with active(plan):
            coord.update(Batch(insertions=[(4, 12)]))
        assert [fp.site for fp in plan.fired] == ["shard.apply"]
        # The retry succeeded: the edge landed, and every *other* shard's
        # vertex set is exactly its pre-batch state plus nothing.
        assert coord.has_edge(4, 12)
        for s in (1, 2, 3):
            assert {
                v: kernels[s].level(v) for v in before[s][0]
            } == before_levels[s]
        assert coord.check_invariants() == []

    def test_fault_exhausting_retries_escalates(self) -> None:
        coord = Coordinator(_N_HINT, shards=2, shard_retry_limit=2)
        coord.update(Batch(insertions=[(0, 1)]))
        plan = FaultPlan(
            [FaultPoint("shard.apply", h) for h in range(1, 10)]
        )
        from repro.faults import InjectedFault

        with active(plan):
            with pytest.raises(InjectedFault):
                coord.update(Batch(insertions=[(2, 3)]))
        # The failed scatter left the structure rolled back and clean.
        assert not coord.has_edge(2, 3)
        assert coord.check_invariants() == []


# ----------------------------------------------------------------------
# Round structure: local quiescence, collapsed events, parallel replay
# ----------------------------------------------------------------------


class TestRoundStructure:
    def test_multi_level_rise_reaches_each_mirror_as_one_event(
        self, monkeypatch
    ) -> None:
        # A clique on the even ids lives on shard 0 and rises many levels
        # in its first round; vertex 1 (shard 1) mirrors vertex 0 only.
        coord = Coordinator(_N_HINT, shards=2)
        evens = range(0, 24, 2)
        clique = [(u, w) for u in evens for w in evens if u < w]
        mirror = coord.kernels[1]
        apply_moves = mirror.apply_moves
        replayed: list[list[tuple[int, int, int]]] = []

        def spy(events):
            replayed.append(
                [(v, mirror._ghosts[v].level, new) for v, new in events]
            )
            apply_moves(events)

        monkeypatch.setattr(mirror, "apply_moves", spy)
        coord.update(Batch(insertions=clique + [(0, 1)]))
        for events in replayed:
            ids = [v for v, _old, _new in events]
            assert ids == sorted(set(ids))
        zero = [
            (old, new) for events in replayed for v, old, new in events if v == 0
        ]
        assert len(zero) == 1
        old, new = zero[0]
        assert new - old > 1 and new == coord.level(0)
        assert coord.last_rounds == 1
        assert coord.check_invariants() == []

    def test_ghost_replay_charges_sum_work_max_depth(self) -> None:
        # Shard 0 mirrors the odd ids; vertex 2k+1 is adjacent to the
        # first 2k+2 even ids, so the replays differ in work.
        coord = Coordinator(_N_HINT, shards=2)
        coord.update(
            Batch(
                insertions=[
                    (w, g) for g in (1, 3, 5, 7) for w in range(0, g + 1, 2)
                ]
            )
        )
        kernel = coord.kernels[0]
        events = [(g, kernel._ghosts[g].level + 2) for g in (1, 3, 5, 7)]
        state = kernel.capture_state()
        alone = []
        for ev in events:
            kernel.restore_state(state)
            since = kernel.tracker.snapshot()
            kernel.apply_moves([ev])
            delta = kernel.tracker.delta(since)
            alone.append((delta.work, delta.depth))
        kernel.restore_state(state)
        since = kernel.tracker.snapshot()
        kernel.apply_moves(events)
        delta = kernel.tracker.delta(since)
        assert len({w for w, _d in alone}) > 1
        assert delta.work == sum(w for w, _d in alone)
        assert delta.depth == max(d for _w, d in alone)
        assert delta.depth < sum(d for _w, d in alone)


# ----------------------------------------------------------------------
# Span reconciliation: round work == sum of shard work + messages
# ----------------------------------------------------------------------


class TestSpanReconciliation:
    def test_round_spans_reconcile_exactly(self) -> None:
        tracer = Tracer()
        coord = Coordinator(_N_HINT, shards=4)
        with tracing(tracer):
            for b in _stream()[:6]:
                coord.update(b)
        rounds = [
            s for s in iter_spans(tracer.roots) if s.name == "shard.round"
        ]
        assert rounds, "no shard.round spans were recorded"
        for r in rounds:
            shard_work = sum(ch.work for ch in r.children)
            assert r.work == shard_work + r.attrs["messages"], (
                f"round at level {r.attrs.get('level')} does not reconcile"
            )
        assert any(r.attrs["messages"] > 0 for r in rounds)

    def test_spans_carry_shard_identity(self) -> None:
        tracer = Tracer()
        coord = Coordinator(_N_HINT, shards=4)
        with tracing(tracer):
            coord.update(Batch(insertions=[(0, 1), (1, 2), (2, 3), (0, 3)]))
        names = {s.name for s in iter_spans(tracer.roots)}
        assert "coordinator.update" in names
        assert "shard.apply" in names
        applies = [
            s for s in iter_spans(tracer.roots) if s.name == "shard.apply"
        ]
        assert {s.attrs["shard"] for s in applies} <= {0, 1, 2, 3}


# ----------------------------------------------------------------------
# Level-table growth
# ----------------------------------------------------------------------


class TestLevelTableGrowth:
    """A rise past the top level rebuilds every kernel on a doubled
    table mid-batch, as the PLDS does, and the deletions then run on the
    rebuilt kernels."""

    @staticmethod
    def _batches() -> list[Batch]:
        clique = [(u, v) for u in range(60) for v in range(u + 1, 60)]
        return [
            Batch(insertions=[(100, 101), (101, 102)]),
            Batch(insertions=clique, deletions=[(100, 101)]),
        ]

    @pytest.mark.parametrize("strategy", ["levelwise", "jump"])
    def test_overflow_rebuilds_like_plds(self, strategy: str) -> None:
        coord = Coordinator(8, shards=2, insertion_strategy=strategy)
        mono = PLDS(n_hint=8, insertion_strategy=strategy)
        tracer = Tracer()
        for b in self._batches():
            with tracing(tracer):
                coord.update(b)
            mono.update(b)
        assert coord.n_hint == mono.n_hint > 8
        assert coord.num_edges == 1771
        assert not coord.has_edge(100, 101) and coord.has_edge(101, 102)
        assert coord.check_invariants() == []
        assert coord.coreness_estimates() == mono.coreness_estimates()
        assert coord.last_moved is None
        # The aborted round's spans are closed, so the rebuild hangs
        # directly off the batch's span.
        batch_span = tracer.roots[-1]
        assert batch_span.name == "coordinator.update"
        assert "shard.rebuild" in [c.name for c in batch_span.children]

    def test_service_commits_the_overflowing_batch(self) -> None:
        from repro.service import CoreService

        svc = CoreService("plds-sharded", n_hint=8, shards=2)
        ref = CoreService("plds", n_hint=8)
        for b in self._batches():
            svc.apply_batch(b)
            ref.apply_batch(b)
        assert all(t.attempts == 1 and not t.rolled_back for t in svc.telemetry)
        assert svc.coreness_map() == ref.coreness_map()
        assert svc.audit() == []


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


class TestSnapshots:
    def test_json_round_trip_and_continued_parity(self) -> None:
        batches = _stream()
        coord = Coordinator(_N_HINT, shards=4)
        mono = PLDS(n_hint=_N_HINT)
        for b in batches[:6]:
            coord.update(b)
            mono.update(b)
        blob = json.dumps(coord.to_snapshot(), sort_keys=True)
        restored = Coordinator.from_snapshot(json.loads(blob))
        assert restored.num_shards == 4
        assert restored.coreness_estimates() == coord.coreness_estimates()
        assert restored.check_invariants() == []
        for b in batches[6:]:
            restored.update(b)
            mono.update(b)
        assert restored.coreness_estimates() == mono.coreness_estimates()

    def test_snapshot_rejects_wrong_format(self) -> None:
        with pytest.raises(ValueError):
            Coordinator.from_snapshot({"format": 99, "sharded": True})


# ----------------------------------------------------------------------
# Registry + service integration
# ----------------------------------------------------------------------


class TestServiceIntegration:
    def test_registry_capabilities(self) -> None:
        spec = algorithm_spec("plds-sharded")
        assert spec.sharded and spec.parallel and spec.snapshot
        assert not spec.exact
        adapter = make_adapter("plds-sharded", _N_HINT, shards=7)
        assert adapter.impl.num_shards == 7

    def test_service_parity_audit_and_restore(self) -> None:
        from repro.service import CoreService

        svc = CoreService("plds-sharded", n_hint=_N_HINT, shards=4)
        ref = CoreService("plds", n_hint=_N_HINT)
        batches = _stream()
        for b in batches[:6]:
            svc.apply_batch(b)
            ref.apply_batch(b)
        assert svc.audit() == []
        snap = svc.snapshot()
        for b in batches[6:]:
            svc.apply_batch(b)
            ref.apply_batch(b)
        assert svc.coreness_map() == ref.coreness_map()
        svc.restore(snap)
        for b in batches[6:]:
            svc.apply_batch(b)
        assert svc.coreness_map() == ref.coreness_map()
        assert svc.audit() == []

    def test_shard_fault_absorbed_below_the_service(self) -> None:
        from repro.service import CoreService

        svc = CoreService("plds-sharded", n_hint=_N_HINT, shards=4)
        ref = CoreService("plds", n_hint=_N_HINT)
        plan = FaultPlan([FaultPoint("shard.apply", 3)])
        with active(plan):
            for b in _stream():
                svc.apply_batch(b)
        for b in _stream():
            ref.apply_batch(b)
        assert any(fp.site == "shard.apply" for fp in plan.fired)
        # The shard-level retry absorbed the fault: the service saw one
        # clean attempt per batch and never rolled the whole engine back.
        assert all(t.attempts == 1 and not t.rolled_back for t in svc.telemetry)
        assert svc.coreness_map() == ref.coreness_map()
        assert svc.audit() == []
