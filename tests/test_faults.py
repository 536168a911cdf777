"""Fault-injection substrate and chaos-recovery tests.

Covers the :mod:`repro.faults` registry itself, the named injection
sites threaded through the engine/PLDS/service layers, and the headline
robustness claim: a single injected crash at *any* site, at any point of
a power-law update stream, recovers to a final coreness state
bit-identical to the fault-free run.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.bench.chaos import run_chaos
from repro.faults import FAULT_SITES, FaultPlan, FaultPoint, InjectedFault
from repro.graphs.generators import barabasi_albert
from repro.graphs.streams import Batch, deletion_batches, insertion_batches
from repro.parallel import engine as engine_mod
from repro.service import AuditPolicy, CoreService, RetryPolicy

pytestmark = pytest.mark.faults


# ---------------------------------------------------------------------------
# The registry itself
# ---------------------------------------------------------------------------


def test_fault_point_rejects_unknown_site():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPoint("service.unknown", 1)


def test_fault_point_rejects_nonpositive_hit():
    with pytest.raises(ValueError, match="hit_number"):
        FaultPoint("plds.rise", 0)


def test_plan_fires_exactly_on_armed_hit():
    plan = FaultPlan([FaultPoint("plds.rise", 3)])
    plan.hit("plds.rise")
    plan.hit("plds.rise")
    with pytest.raises(InjectedFault, match="plds.rise"):
        plan.hit("plds.rise")
    # Counters advance past the armed hit: the fault is transient.
    plan.hit("plds.rise")
    assert plan.counts["plds.rise"] == 4
    assert plan.fired == [FaultPoint("plds.rise", 3)]


def test_recording_plan_counts_without_raising():
    plan = faults.recording_plan()
    for _ in range(5):
        plan.hit("engine.parfor")
    assert plan.counts["engine.parfor"] == 5
    assert plan.fired == []


def test_active_context_installs_and_restores():
    outer = faults.recording_plan()
    inner = faults.recording_plan()
    assert faults.ACTIVE is None
    with faults.active(outer):
        assert faults.ACTIVE is outer
        with faults.active(inner):
            assert faults.ACTIVE is inner
        assert faults.ACTIVE is outer
    assert faults.ACTIVE is None


def test_random_plan_is_deterministic_and_targets_live_sites():
    census = {s: 0 for s in FAULT_SITES}
    census["plds.rise"] = 10
    census["service.apply"] = 4
    plans = [faults.random_plan(7, census) for _ in range(3)]
    assert plans[0].points == plans[1].points == plans[2].points
    point = plans[0].points[0]
    assert point.site in ("plds.rise", "service.apply")
    assert 1 <= point.hit_number <= census[point.site]


def test_random_plan_requires_a_live_site():
    with pytest.raises(ValueError, match="no live sites"):
        faults.random_plan(0, {s: 0 for s in FAULT_SITES})


# ---------------------------------------------------------------------------
# Injection sites in the engine and PLDS layers
# ---------------------------------------------------------------------------


def test_engine_parfor_site_fires_under_active_plan(tracker):
    plan = FaultPlan([FaultPoint("engine.parfor", 1)])
    with faults.active(plan):
        with pytest.raises(InjectedFault):
            tracker.flat_parfor([1, 2, 3], lambda x: None)
    assert plan.fired


def test_engine_hook_removed_after_context(tracker):
    with faults.active(faults.recording_plan()):
        pass
    # Outside the context the hook is gone: parfor runs clean.
    tracker.flat_parfor([1, 2, 3], lambda x: tracker.add())
    assert tracker.work == 3


def test_plds_sites_fire_with_active_plan():
    edges = barabasi_albert(60, 3, seed=1)
    plan = FaultPlan([FaultPoint("plds.rise", 1)])
    svc = CoreService("plds", n_hint=64, retry=RetryPolicy(max_attempts=1))
    with faults.active(plan):
        with pytest.raises(InjectedFault):
            svc.apply_batch(Batch(insertions=edges))
    assert plan.fired == [FaultPoint("plds.rise", 1)]


def test_no_overhead_path_when_disabled(tracker):
    # Without install(), the engine hook is None and ACTIVE is None:
    # fault checks are a single global load per phase, never per item.
    assert faults.ACTIVE is None
    assert engine_mod._FAULT_HOOK is None
    tracker.flat_parfor(range(10), lambda x: tracker.add())
    assert tracker.work == 10


# ---------------------------------------------------------------------------
# Recovery parity: the headline robustness property
# ---------------------------------------------------------------------------


def _stream(vertices=100, seed=7, batch_size=40):
    """A ~500-update power-law stream with real deletion pressure."""
    edges = barabasi_albert(vertices, 3, seed=seed)
    doomed = edges[: len(edges) // 2]
    return insertion_batches(edges, batch_size, seed=seed) + deletion_batches(
        doomed, batch_size, seed=seed
    )


def _serve(batches, algorithm, plan=None, **kwargs):
    svc = CoreService(algorithm, n_hint=128, **kwargs)
    if plan is None:
        for b in batches:
            svc.apply_batch(b)
        return svc
    with faults.active(plan):
        for b in batches:
            svc.apply_batch(b)
    return svc


@pytest.mark.parametrize("algorithm", ["plds", "pldsopt", "lds"])
@pytest.mark.parametrize("site", FAULT_SITES)
def test_single_fault_at_each_site_recovers_bit_identical(algorithm, site):
    batches = _stream()
    baseline = _serve(batches, algorithm).coreness_map()
    census = faults.recording_plan()
    _serve(batches, algorithm, census)
    if census.counts[site] == 0:
        pytest.skip(f"site {site} not reachable on this workload/algorithm")
    # Arm the fault mid-stream, the most state-laden moment.
    hit = census.counts[site] // 2 + 1
    plan = FaultPlan([FaultPoint(site, hit)])
    svc = _serve(batches, algorithm, plan)
    assert plan.fired == [FaultPoint(site, hit)]
    assert any(t.rolled_back for t in svc.telemetry)
    assert svc.coreness_map() == baseline


def test_seeded_random_fault_plans_recover_bit_identical():
    """Property test: any seeded single-fault plan recovers exactly."""
    batches = _stream(vertices=80, seed=3)
    baseline = _serve(batches, "pldsopt").coreness_map()
    census = faults.recording_plan()
    _serve(batches, "pldsopt", census)
    for seed in range(10):
        plan = faults.random_plan(seed, census.counts)
        svc = _serve(
            batches, "pldsopt", plan, audit=AuditPolicy("on-recovery")
        )
        assert plan.fired, plan.points
        assert svc.coreness_map() == baseline, plan.points
        # Recovery audits found the restored structure healthy.
        assert svc.audit_failures == []


def test_fault_during_retry_does_not_refire():
    """Counters persist across retries, so the Nth-hit fault is transient."""
    batches = _stream(vertices=60, seed=5)
    plan = FaultPlan([FaultPoint("service.apply", 2)])
    svc = _serve(batches, "pldsopt", plan, retry=RetryPolicy(max_attempts=2))
    failed = [t for t in svc.telemetry if t.rolled_back]
    assert len(failed) == 1
    assert failed[0].attempts == 2


# ---------------------------------------------------------------------------
# Chaos harness
# ---------------------------------------------------------------------------


def test_run_chaos_report_all_trials_recover():
    report = run_chaos(vertices=80, batch_size=40, trials=4, seed=1)
    assert report.ok
    assert len(report.trials) == 4
    assert all(t.fired and t.parity for t in report.trials)
    # Every census site the workload exercises is recorded.
    assert set(report.census) == set(FAULT_SITES)
    assert report.census["service.apply"] == report.batches


def test_chaos_report_json_round_trip_shape():
    report = run_chaos(vertices=60, batch_size=30, trials=2, seed=2)
    data = report.to_json_dict()
    assert data["format"] == 1
    assert data["ok"] is True
    assert len(data["trials"]) == 2
    for trial in data["trials"]:
        assert {"seed", "site", "hit_number", "fired", "parity", "ok"} <= set(
            trial
        )


def test_chaos_validates_arguments():
    with pytest.raises(ValueError, match="trials"):
        run_chaos(trials=0)
    with pytest.raises(ValueError, match="delete_fraction"):
        run_chaos(delete_fraction=1.5)


# ---------------------------------------------------------------------------
# Rollback restores the engine structure exactly
# ---------------------------------------------------------------------------

#: Every snapshot-capable engine the rollback composes a snapshot for.
SNAPSHOT_ENGINES = ("plds", "pldsopt", "plds-sharded")


def _loaded(algorithm, n_hint):
    """A service holding a committed prefix, plus a mixed batch on top."""
    edges = barabasi_albert(60, 3, seed=4)
    svc = CoreService(algorithm, n_hint=n_hint)
    for batch in insertion_batches(edges[:120], 40, seed=4):
        svc.apply_batch(batch)
    mixed = Batch(insertions=edges[120:150], deletions=edges[:20])
    return svc, mixed


def _always(site):
    """A plan that crashes on every traversal of ``site``."""
    return FaultPlan([FaultPoint(site, hit) for hit in range(1, 500)])


@pytest.mark.parametrize("n_hint", [16, 1024])
@pytest.mark.parametrize(
    "site", ["service.apply", "plds.rise", "plds.desaturate"]
)
@pytest.mark.parametrize("algorithm", SNAPSHOT_ENGINES)
def test_exhausted_rollback_restores_engine_structure(algorithm, site, n_hint):
    svc, mixed = _loaded(algorithm, n_hint)
    before = svc.engine.to_snapshot()
    plan = _always(site)
    with faults.active(plan), pytest.raises(InjectedFault):
        svc.apply_batch(mixed)
    assert len(plan.fired) == svc.retry.max_attempts
    assert svc.engine.to_snapshot() == before
    assert svc.audit() == []


def _growing(algorithm):
    """A small committed graph and a mixed batch that more than doubles
    its vertex count, so the batch outgrows ``n_hint`` and rebuilds."""
    edges = barabasi_albert(60, 3, seed=4)
    old = [e for e in edges if max(e) < 12]
    svc = CoreService(algorithm, n_hint=16)
    svc.apply_batch(Batch(insertions=old))
    grown = [e for e in edges if max(e) >= 12][:60]
    return svc, Batch(insertions=grown, deletions=old[:5])


def _spy_rebuilds(monkeypatch, svc, plan):
    """Record ``(rebuilt structure, plds.rise hits so far)`` at each
    rebuild entry; the structure holds the re-sized ``n_hint``."""
    impl = svc.engine
    original = impl._rebuild
    calls = []

    def spy(*args):
        calls.append((impl, plan.counts["plds.rise"]))
        original(*args)

    monkeypatch.setattr(impl, "_rebuild", spy)
    return calls


@pytest.mark.parametrize("algorithm", SNAPSHOT_ENGINES)
def test_rollback_of_attempt_that_rebuilt_uses_batch_start_header(
    monkeypatch, algorithm
):
    """A Section-5.9 rebuild inside the failed attempt re-sizes n_hint;
    the rollback must restore the header captured at batch start."""
    # Census on an identical service: where in the batch the rebuild runs.
    twin, mixed = _growing(algorithm)
    census = faults.recording_plan()
    rebuilds = _spy_rebuilds(monkeypatch, twin, census)
    with faults.active(census):
        twin.apply_batch(mixed)
    assert rebuilds, "the batch must trigger an in-batch rebuild"
    rise_before_rebuild = rebuilds[0][1]

    svc, mixed = _growing(algorithm)
    before = svc.engine.to_snapshot()
    # Attempt 1 crashes in the rebuild's replay; attempts 2-3 at entry.
    plan = FaultPlan([
        FaultPoint("plds.rise", rise_before_rebuild + 1),
        FaultPoint("service.apply", 2),
        FaultPoint("service.apply", 3),
    ])
    rebuilds = _spy_rebuilds(monkeypatch, svc, plan)
    with faults.active(plan), pytest.raises(InjectedFault):
        svc.apply_batch(mixed)
    assert plan.fired == list(plan.points)
    rebuilt = rebuilds[0][0]
    assert rebuilt.n_hint != before["params"]["n_hint"]  # re-sized
    assert svc.engine.to_snapshot() == before
    assert svc.audit() == []
