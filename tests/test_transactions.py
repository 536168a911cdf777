"""Transactional serving: journal, rollback, retry, audit, degradation.

Exercises the crash-safe half of :class:`repro.service.CoreService`:
write-ahead journaling with replayable committed prefixes, rollback to
the exact pre-batch state on failure, bounded deterministic retries,
invariant auditing, and the graceful-degradation ladder (rebuild →
exact static recompute).
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultPoint, InjectedFault
from repro.graphs.generators import barabasi_albert
from repro.graphs.streams import (
    Batch,
    EdgeUpdate,
    UpdateJournal,
    deletion_batches,
    insertion_batches,
    mixed_batch,
)
from repro.service import AuditPolicy, CoreService, RetryPolicy
from repro.static_kcore.exact import exact_coreness

EDGES = barabasi_albert(100, 3, seed=11)


def _mixed_stream():
    doomed = EDGES[: len(EDGES) // 2]
    return insertion_batches(EDGES, 40, seed=1) + deletion_batches(
        doomed, 40, seed=1
    )


# ---------------------------------------------------------------------------
# Negative vertex-id validation (consistent across both entry points)
# ---------------------------------------------------------------------------


def test_edge_update_rejects_negative_ids_at_construction():
    with pytest.raises(ValueError, match=r"negative vertex id.*-3"):
        EdgeUpdate(-3, 2, True)


def test_apply_batch_rejects_negative_insertion_and_names_it():
    svc = CoreService("plds", n_hint=16)
    with pytest.raises(ValueError, match=r"insertion \(1,-2\)"):
        svc.apply_batch(Batch(insertions=[(0, 1), (1, -2)]))
    # Rejected before journaling or engine work: state fully untouched.
    assert svc.num_edges == 0
    assert svc.batches_applied == 0
    assert len(svc.journal) == 0


def test_apply_batch_rejects_negative_deletion_and_names_it():
    svc = CoreService("plds", n_hint=16)
    with pytest.raises(ValueError, match=r"deletion \(-1,5\)"):
        svc.apply_batch(Batch(deletions=[(-1, 5)]))


def test_apply_updates_rejects_negative_ids_consistently():
    # The raw-stream entry point rejects at EdgeUpdate construction; the
    # Batch entry point rejects in apply_batch (check_batch, which every
    # engine also runs) — same error.
    svc = CoreService("plds", n_hint=16)
    with pytest.raises(ValueError, match="negative vertex id"):
        svc.apply_updates([EdgeUpdate(0, 1, True), EdgeUpdate(2, -7, True)])
    assert svc.num_edges == 0 and svc.batches_applied == 0


# ---------------------------------------------------------------------------
# Write-ahead journal
# ---------------------------------------------------------------------------


def test_journal_write_ahead_lifecycle():
    journal = UpdateJournal()
    record = journal.begin(Batch(insertions=[(0, 1)]))
    assert record.status == "pending"          # written before the engine runs
    journal.commit(record)
    assert record.status == "committed"
    aborted = journal.begin(Batch(deletions=[(0, 1)]))
    journal.abort(aborted)
    committed = journal.committed_batches()
    assert len(committed) == 1
    assert committed[0].insertions == [(0, 1)]


def test_journal_json_round_trip(tmp_path):
    journal = UpdateJournal()
    journal.commit(journal.begin(Batch(insertions=[(0, 1), (1, 2)])))
    journal.abort(journal.begin(Batch(deletions=[(0, 1)])))
    path = tmp_path / "journal.json"
    journal.dump(str(path))
    loaded = UpdateJournal.load(str(path))
    assert [r.status for r in loaded.records] == ["committed", "aborted"]
    assert loaded.records[0].insertions == ((0, 1), (1, 2))


def test_journal_rejects_bad_format_and_status():
    with pytest.raises(ValueError, match="unsupported journal format"):
        UpdateJournal.from_json_dict({"format": 99, "records": []})
    bad = {
        "format": 1,
        "records": [
            {"seq": 1, "insertions": [], "deletions": [], "status": "weird"}
        ],
    }
    with pytest.raises(ValueError, match="unknown journal status"):
        UpdateJournal.from_json_dict(bad)


def _dump_truncated(tmp_path, cut: int) -> str:
    """Dump a 3-record journal and chop the file after ``cut`` bytes."""
    journal = UpdateJournal()
    journal.commit(journal.begin(Batch(insertions=[(0, 1), (1, 2)])))
    journal.commit(journal.begin(Batch(insertions=[(2, 3)])))
    journal.abort(journal.begin(Batch(deletions=[(0, 1)])))
    path = tmp_path / "journal.json"
    journal.dump(str(path))
    text = path.read_text()
    path.write_text(text[:cut])
    return str(path)


def test_truncated_journal_strict_load_names_cut_point(tmp_path):
    # Cut mid-way through the last record: a crash mid-dump.
    path = _dump_truncated(tmp_path, cut=320)
    with pytest.raises(ValueError) as excinfo:
        UpdateJournal.load(path)
    message = str(excinfo.value)
    assert "corrupt at line" in message and "column" in message
    assert "recover=True" in message
    # The error is a clean ValueError, not a traceback through json.
    assert excinfo.value.__cause__ is None


def test_truncated_journal_recovers_intact_prefix(tmp_path):
    path = _dump_truncated(tmp_path, cut=320)
    journal = UpdateJournal.load(path, recover=True)
    assert journal.truncation is not None
    assert journal.truncation.records == len(journal.records)
    assert journal.truncation.line >= 1 and journal.truncation.column >= 1
    # Every recovered record is fully intact and replayable.
    assert all(
        r.status in ("committed", "aborted", "pending")
        for r in journal.records
    )
    recovered = CoreService.from_journal(journal, "plds", n_hint=16)
    assert recovered.batches_applied == sum(
        1 for r in journal.records if r.status == "committed"
    )


def test_truncation_cut_points_are_monotone(tmp_path):
    """Cutting earlier never recovers more records, and never crashes."""
    full = _dump_truncated(tmp_path, cut=10**9)
    size = len(open(full).read())
    last = None
    for cut in range(size, 0, -37):
        path = _dump_truncated(tmp_path, cut=cut)
        journal = UpdateJournal.load(path, recover=True)
        if last is not None:
            assert len(journal.records) <= last
        last = len(journal.records)
    assert last == 0  # a 1-byte file recovers nothing, quietly


def test_intact_journal_recover_flag_is_noop(tmp_path):
    journal = UpdateJournal()
    journal.commit(journal.begin(Batch(insertions=[(0, 1)])))
    path = tmp_path / "journal.json"
    journal.dump(str(path))
    loaded = UpdateJournal.load(str(path), recover=True)
    assert loaded.truncation is None
    assert [r.status for r in loaded.records] == ["committed"]


def test_from_journal_replays_committed_prefix_bit_identically(tmp_path):
    svc = CoreService("pldsopt", n_hint=128)
    for batch in _mixed_stream():
        svc.apply_batch(batch)
    path = tmp_path / "journal.json"
    svc.journal.dump(str(path))

    recovered = CoreService.from_journal(
        UpdateJournal.load(str(path)), "pldsopt", n_hint=128
    )
    assert recovered.coreness_map() == svc.coreness_map()
    assert recovered.num_edges == svc.num_edges
    assert recovered.snapshot().engine_state == svc.snapshot().engine_state


def test_from_journal_skips_pending_and_aborted_records():
    journal = UpdateJournal()
    journal.commit(journal.begin(Batch(insertions=[(0, 1), (1, 2)])))
    journal.abort(journal.begin(Batch(insertions=[(7, 8)])))
    journal.begin(Batch(insertions=[(8, 9)]))  # pending: crashed mid-apply
    svc = CoreService.from_journal(journal, "plds", n_hint=16)
    assert svc.num_edges == 2
    assert not svc.has_edge(7, 8)
    assert not svc.has_edge(8, 9)


# ---------------------------------------------------------------------------
# Rollback and retry
# ---------------------------------------------------------------------------


def test_transient_fault_is_retried_and_committed():
    svc = CoreService("pldsopt", n_hint=128, retry=RetryPolicy(max_attempts=3))
    plan = FaultPlan([FaultPoint("service.apply", 2)])
    with faults.active(plan):
        for batch in insertion_batches(EDGES, 50, seed=2):
            svc.apply_batch(batch)
    failed = [t for t in svc.telemetry if t.rolled_back]
    assert len(failed) == 1
    assert failed[0].attempts == 2
    assert all(r.status == "committed" for r in svc.journal.records)
    # Parity with an unfaulted run of the same stream.
    clean = CoreService("pldsopt", n_hint=128)
    for batch in insertion_batches(EDGES, 50, seed=2):
        clean.apply_batch(batch)
    assert svc.coreness_map() == clean.coreness_map()


def test_exhausted_retries_reraise_with_state_rolled_back():
    svc = CoreService("plds", n_hint=128, retry=RetryPolicy(max_attempts=2))
    first = insertion_batches(EDGES, 60, seed=3)[0]
    svc.apply_batch(first)
    pre = svc.snapshot()
    # Both attempts of the next batch crash (the plan is activated after
    # the first batch, so its attempts are hits 1 and 2).
    plan = FaultPlan([FaultPoint("service.apply", 1), FaultPoint("service.apply", 2)])
    with faults.active(plan):
        with pytest.raises(InjectedFault):
            svc.apply_batch(insertion_batches(EDGES, 60, seed=3)[1])
    assert svc.journal.records[-1].status == "aborted"
    assert svc.batches_applied == 1
    assert svc.snapshot().engine_state == pre.engine_state
    assert svc.coreness_map() == pre.coreness_map()
    # The service still serves: the batch succeeds once faults are gone.
    svc.apply_batch(insertion_batches(EDGES, 60, seed=3)[1])


def test_nonretryable_error_aborts_without_retry():
    svc = CoreService(
        "plds", n_hint=16, retry=RetryPolicy(max_attempts=5, retry_on=())
    )
    svc.apply_batch(Batch(insertions=[(0, 1)]))
    plan = FaultPlan([FaultPoint("service.apply", 1)])
    with faults.active(plan), pytest.raises(InjectedFault):
        svc.apply_batch(Batch(insertions=[(1, 2)]))
    assert len(plan.fired) == 1  # not retried
    assert svc.journal.records[-1].status == "aborted"
    assert svc.num_edges == 1 and not svc.has_edge(1, 2)
    assert len(svc.telemetry) == 1  # no telemetry row for the aborted batch


def test_backoff_is_metered_as_depth_not_slept():
    policy = RetryPolicy(max_attempts=4, backoff_depth=8)
    assert [policy.backoff_for(k) for k in (1, 2, 3)] == [8, 16, 32]
    svc = CoreService("plds", n_hint=64, retry=policy)
    plan = FaultPlan([FaultPoint("service.apply", 1)])
    before = svc.total_cost
    with faults.active(plan):
        t = svc.apply_batch(Batch(insertions=[(0, 1), (1, 2)]))
    assert t.attempts == 2
    # The retry's backoff (8 depth units) is charged to the engine tracker.
    assert svc.total_cost.depth - before.depth >= 8


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_depth=-1)
    with pytest.raises(ValueError):
        AuditPolicy(mode="sometimes")
    with pytest.raises(ValueError):
        AuditPolicy(mode="every", every_n=0)


# ---------------------------------------------------------------------------
# Snapshot restore across engine families
# ---------------------------------------------------------------------------

FAMILIES = ["plds", "pldsopt", "lds", "sun", "zhang", "hua"]


@pytest.mark.parametrize("algorithm", FAMILIES)
def test_restore_under_deletion_heavy_stream(algorithm):
    svc = CoreService(algorithm, n_hint=128)
    for batch in insertion_batches(EDGES, 50, seed=4):
        svc.apply_batch(batch)
    snap = svc.snapshot()
    for batch in deletion_batches(EDGES[: len(EDGES) // 2], 25, seed=4):
        svc.apply_batch(batch)
    svc.restore(snap)
    assert svc.num_edges == len(snap.edges)
    assert svc.batches_applied == snap.batches_applied
    if svc.spec.snapshot:
        # PLDS family restores are bit-identical, not merely equivalent.
        assert svc.snapshot().engine_state == snap.engine_state
        assert svc.coreness_map() == snap.coreness_map()
    elif svc.spec.exact:
        assert svc.coreness_map() == snap.coreness_map()


@pytest.mark.parametrize("algorithm", ["plds", "pldsopt", "lds"])
def test_restore_under_mixed_batch(algorithm):
    initial, batch = mixed_batch(EDGES, 40, seed=6)
    svc = CoreService(algorithm, n_hint=128)
    svc.apply_batch(Batch(insertions=list(initial)))
    snap = svc.snapshot()
    svc.apply_batch(batch)
    assert svc.snapshot().edges != snap.edges
    svc.restore(snap)
    assert svc.snapshot().engine_state == snap.engine_state
    assert svc.coreness_map() == snap.coreness_map()


def test_restore_after_failed_batch():
    svc = CoreService("pldsopt", n_hint=128, retry=RetryPolicy(max_attempts=1))
    for batch in insertion_batches(EDGES, 60, seed=7)[:3]:
        svc.apply_batch(batch)
    snap = svc.snapshot()
    plan = FaultPlan([FaultPoint("plds.rise", 1)])
    with faults.active(plan):
        with pytest.raises(InjectedFault):
            svc.apply_batch(insertion_batches(EDGES, 60, seed=7)[3])
    svc.restore(snap)
    assert svc.snapshot().engine_state == snap.engine_state
    assert svc.coreness_map() == snap.coreness_map()


def test_restore_rejects_algorithm_mismatch():
    svc_a = CoreService("plds", n_hint=16)
    svc_b = CoreService("lds", n_hint=16)
    with pytest.raises(ValueError, match="snapshot was taken from"):
        svc_b.restore(svc_a.snapshot())


# ---------------------------------------------------------------------------
# Auditing and graceful degradation
# ---------------------------------------------------------------------------


def _corrupt(svc: CoreService) -> None:
    """Desynchronize the engine from the mirror behind the service's back."""
    svc._adapter.update(Batch(insertions=[(900, 901)]))


def test_audit_detects_corrupted_engine():
    svc = CoreService("plds", n_hint=1024)
    svc.apply_batch(Batch(insertions=EDGES[:50]))
    assert svc.audit() == []
    _corrupt(svc)
    problems = svc.audit()
    assert problems and any("extra edges" in p for p in problems)


def test_failed_audit_degrades_and_keeps_answering():
    svc = CoreService("plds", n_hint=1024, audit=AuditPolicy("every"))
    svc.apply_batch(Batch(insertions=EDGES[:60]))
    _corrupt(svc)
    telemetry = svc.apply_batch(Batch(insertions=EDGES[60:90]))
    assert telemetry.degraded
    assert svc.degraded
    assert svc.degraded_to == "plds"       # rung 1: same-algorithm rebuild
    assert svc.quarantined is not None
    assert len(svc.audit_failures) == 1
    # The rebuilt engine is healthy and answers within the (2+eps) bound.
    assert svc.audit() == []
    exact = exact_coreness(sorted(svc._edges))
    factor = (2 + 3 / 3.0) * (1 + 0.4)  # (2 + 3/lam)(1 + delta), defaults
    for v, k in exact.items():
        if k > 0:
            assert svc.coreness(v) <= k * factor + 1e-9
            assert svc.coreness(v) >= k / factor - 1e-9


def test_degradation_last_resort_is_exact_static(monkeypatch):
    from repro.service import core as service_core

    svc = CoreService("plds", n_hint=1024, audit=AuditPolicy("every"))
    svc.apply_batch(Batch(insertions=EDGES[:60]))
    _corrupt(svc)
    real_rebuild = service_core.rebuild_adapter

    def failing_rebuild(key, n_hint, edges, **kwargs):
        if key == "plds":
            raise RuntimeError("rebuild path also corrupted")
        return real_rebuild(key, n_hint, edges, **kwargs)

    monkeypatch.setattr(service_core, "rebuild_adapter", failing_rebuild)
    svc.apply_batch(Batch(insertions=EDGES[60:90]))
    assert svc.degraded_to == "exactkcore"
    assert svc.algorithm == "exactkcore"
    # Last-resort answers are exact.
    exact = exact_coreness(sorted(svc._edges))
    assert all(svc.coreness(v) == float(k) for v, k in exact.items())
    # And the degraded service keeps serving subsequent batches.
    svc.apply_batch(Batch(insertions=EDGES[90:100]))


def test_on_recovery_audit_runs_only_after_rollback(monkeypatch):
    svc = CoreService(
        "plds", n_hint=1024, audit=AuditPolicy("on-recovery")
    )
    svc.apply_batch(Batch(insertions=EDGES[:40]))
    _corrupt(svc)
    # No rollback happened, so the corruption goes unnoticed...
    svc.apply_batch(Batch(insertions=EDGES[40:60]))
    assert not svc.degraded
    # ...until a batch needs recovery, which triggers the audit.  The
    # rollback rebuilds the engine from the committed state, so corrupt
    # the engine it produces: that is what the recovery audit checks.
    restore_engine = svc._restore_engine

    def restore_then_corrupt(*args):
        restore_engine(*args)
        _corrupt(svc)

    monkeypatch.setattr(svc, "_restore_engine", restore_then_corrupt)
    plan = FaultPlan([FaultPoint("service.apply", 1)])
    with faults.active(plan):
        t = svc.apply_batch(Batch(insertions=EDGES[60:80]))
    assert t.rolled_back and t.degraded
    assert svc.degraded and svc.audit() == []


def test_rollback_drops_out_of_band_engine_edit():
    svc = CoreService(
        "plds", n_hint=1024, audit=AuditPolicy("on-recovery")
    )
    svc.apply_batch(Batch(insertions=EDGES[:40]))
    _corrupt(svc)
    assert svc.audit()
    # A rollback restores the committed state (mirror plus published
    # levels), not whatever the engine held at batch start.
    plan = FaultPlan([FaultPoint("service.apply", 1)])
    with faults.active(plan):
        t = svc.apply_batch(Batch(insertions=EDGES[40:60]))
    assert t.rolled_back and not t.degraded
    assert not svc.engine.has_edge(900, 901)
    assert svc.audit() == []


def test_hosted_application_recovers_from_fault():
    svc = CoreService(
        n_hint=128, application="matching", retry=RetryPolicy(max_attempts=3)
    )
    batches = insertion_batches(EDGES, 50, seed=8)
    plan = FaultPlan([FaultPoint("service.apply", 2)])
    with faults.active(plan):
        for batch in batches:
            svc.apply_batch(batch)
    assert any(t.rolled_back for t in svc.telemetry)
    assert svc.num_edges == len(EDGES)
    assert svc.audit() == []              # driver PLDS healthy post-recovery
    assert svc.application is not None    # the app survived the rebuild
