"""MVCC read-path tests: epoch snapshots, wait-free readers, staleness.

The serving layer claims its readers are *wait-free*: every query is
answered from the last published epoch snapshot — a committed-prefix
state — without blocking on (or observing) an in-flight ``apply_batch``,
a rollback/retry, or a degradation rebuild, and never trailing the write
head by more than the one in-flight batch.

These tests pin that claim with a linearizability-style checker: a
:class:`~repro.bench.chaos.ReadProbePlan` issues a read at *every*
faultpoint traversal of a journaled run (mid-cascade, mid-rollback,
mid-rebuild — every place the stack can crash is a place a reader can
interleave) and each probed read must equal the coreness map of a
fault-free serial run at the exact batch prefix the read claims to
serve.
"""

import pytest

from repro import faults
from repro.bench.chaos import (
    ReadProbePlan,
    chaos_workload,
    probe_consistent,
    run_chaos,
)
from repro.graphs.generators import barabasi_albert
from repro.graphs.streams import Batch, deletion_batches, insertion_batches
from repro.obs import metrics, tracing
from repro.registry import algorithm_keys, algorithm_spec
from repro.service import AuditPolicy, CoreService, ReadResult, RetryPolicy

pytestmark = pytest.mark.mvcc

EDGES = barabasi_albert(60, 3, seed=2)

#: Engines with copy-on-write epoch publication (``async_reads`` in the
#: registry) plus representatives of the full-sweep fallback path.
QUERYVIEW_ALGOS = ("plds", "pldsopt", "plds-sharded")
FALLBACK_ALGOS = ("lds", "sun", "zhang")


def _references(batches, algorithm: str, n_hint: int) -> list[dict]:
    """Coreness map of a fault-free serial run after each batch prefix."""
    svc = CoreService(algorithm, n_hint=n_hint)
    refs = [{}]
    for batch in batches:
        svc.apply_batch(batch)
        refs.append(dict(svc.coreness_map()))
    return refs


# ---------------------------------------------------------------------------
# Reader correctness between batches (all engine families)
# ---------------------------------------------------------------------------


class TestReaderBetweenBatches:
    @pytest.mark.query
    @pytest.mark.parametrize("algorithm", QUERYVIEW_ALGOS + FALLBACK_ALGOS)
    def test_reader_matches_service_queries(self, algorithm):
        svc = CoreService(algorithm, n_hint=128)
        reader = svc.reader()
        last_epoch = reader.epoch
        for batch in insertion_batches(EDGES, 60, seed=3):
            svc.apply_batch(batch)
            assert reader.epoch > last_epoch  # publication per commit
            last_epoch = reader.epoch
            r = reader.coreness_map()
            assert isinstance(r, ReadResult)
            assert r.value == svc.coreness_map()
            assert r.staleness == 0 and not r.degraded
            assert r.epoch == reader.epoch
            v = max(r.value, key=r.value.get)
            assert reader.coreness(v).value == svc.coreness(v)
            # k = 1.0 is the one threshold where the reader's plain rule
            # and the service's Lemma-5.13 filter (PLDS family) coincide:
            # both cut at the first group, every non-zero-degree vertex.
            assert reader.core_members(1.0).value == svc.core_members(1.0)
            # Above the first group only the reader's own contract holds.
            for k in {*r.value.values(), 2.0}:
                want = {u for u, c in r.value.items() if c >= k}
                assert reader.core_members(k).value == want, k
            assert reader.core_subgraph(2).value == svc.core_subgraph(2)

    @pytest.mark.query
    def test_reader_densest_estimate_matches_snapshot(self):
        svc = CoreService("pldsopt", n_hint=128)
        svc.apply_batch(Batch(insertions=EDGES))
        got = svc.reader().densest_estimate().value
        assert got == svc.snapshot().densest_estimate()

    def test_view_is_immutable_and_stable_across_batches(self):
        svc = CoreService("pldsopt", n_hint=128)
        batches = insertion_batches(EDGES, 60, seed=3)
        svc.apply_batch(batches[0])
        view = svc.reader().view
        frozen = dict(view.estimates)
        with pytest.raises(TypeError):
            view.estimates[0] = 99.0  # epoch image: no writes
        edges = set(view.edges)
        for batch in batches[1:]:
            svc.apply_batch(batch)
        # The old epoch still answers exactly as it did when published.
        assert dict(view.estimates) == frozen
        assert view.edges == edges != svc._edges


# ---------------------------------------------------------------------------
# Read hooks: one counter, one staleness observation, one span per read
# ---------------------------------------------------------------------------

_READS = [
    ("coreness", (0,)),
    ("coreness_map", ()),
    ("core_members", (1.0,)),
    ("core_subgraph", (2,)),
    ("densest_estimate", ()),
    ("level", (0,)),
]


def _spans(roots, name: str) -> list:
    found, stack = [], list(roots)
    while stack:
        span = stack.pop()
        if span.name == name:
            found.append(span)
        stack.extend(span.children)
    return found


class _ResultProbePlan(ReadProbePlan):
    """Reads a point through the reader at every faultpoint."""

    def __init__(self) -> None:
        super().__init__()
        self.results: list[ReadResult] = []

    def hit(self, site: str) -> None:
        if self.reader is not None:
            self.results.append(self.reader.coreness(0))
        super().hit(site)


@pytest.mark.obs
class TestReadHooks:
    @pytest.mark.parametrize("query, args", _READS, ids=[q for q, _ in _READS])
    def test_each_read_fires_every_hook_once(self, query, args):
        svc = CoreService("pldsopt", n_hint=128)
        svc.apply_batch(Batch(insertions=EDGES))
        reader = svc.reader()
        with metrics.collecting() as mreg, tracing.tracing() as tracer:
            r = getattr(reader, query)(*args)
        assert mreg.counter_series("service.reads") == {
            (("query", query),): 1
        }
        assert mreg.histogram_count("service.read_staleness") == 1
        (span,) = _spans(tracer.roots, "read.snapshot")
        assert span.attrs == {
            "query": query, "epoch": r.epoch, "staleness": r.staleness
        }
        assert (r.epoch, r.staleness, r.degraded) == (reader.epoch, 0, False)

    def test_mid_batch_read_reports_staleness_one(self):
        svc = CoreService("pldsopt", n_hint=128)
        batches = insertion_batches(EDGES, 60, seed=3)
        svc.apply_batch(batches[0])
        epoch = svc.reader().epoch
        plan = _ResultProbePlan()
        plan.bind(svc)
        with metrics.collecting() as mreg, tracing.tracing() as tracer:
            with faults.active(plan):
                svc.apply_batch(batches[1])
        results = plan.results
        assert results, "batch traversed no faultpoints"
        assert {(r.epoch, r.staleness) for r in results} == {(epoch, 1)}
        assert mreg.counter_value("service.reads", query="coreness") == len(
            results
        )
        assert mreg.histogram_count("service.read_staleness") == len(results)
        spans = _spans(tracer.roots, "read.snapshot")
        assert [s.attrs["staleness"] for s in spans] == [1] * len(results)

    def test_read_result_is_an_immutable_tuple(self):
        svc = CoreService("pldsopt", n_hint=128)
        svc.apply_batch(Batch(insertions=EDGES))
        r = svc.reader().coreness(0)
        with pytest.raises(AttributeError):
            r.value = 99.0  # type: ignore[misc]
        value, epoch, staleness, degraded = r
        assert r == (value, epoch, staleness, degraded)
        assert r == ReadResult(value, epoch, staleness, degraded)


# ---------------------------------------------------------------------------
# The linearizability checker: reads interleaved at every faultpoint
# ---------------------------------------------------------------------------


class _EdgeProbePlan(ReadProbePlan):
    """Also reads the served edges at every faultpoint: the pinned
    ``view.edges`` and the 1-core, whose edge list is the whole graph."""

    def __init__(self) -> None:
        super().__init__()
        self.edge_reads: list = []

    def hit(self, site: str) -> None:
        reader = self.reader
        if reader is not None:
            view = reader.view
            sub = reader.core_subgraph(1)
            self.edge_reads.append((view, sub.epoch, sub.value))
        super().hit(site)


class TestPrefixConsistency:
    @pytest.mark.parametrize("algorithm", ("pldsopt", "plds-sharded"))
    def test_mid_batch_reads_serve_committed_prefix(self, algorithm):
        batches = chaos_workload(60, 25, seed=1)
        refs = _references(batches, algorithm, n_hint=61)
        prefix_edges = [set()]
        for batch in batches:
            prefix_edges.append(
                (prefix_edges[-1] | set(batch.insertions)) - set(batch.deletions)
            )
        plan = _EdgeProbePlan()  # no armed points: probe every traversal
        svc = CoreService(algorithm, n_hint=61)
        plan.bind(svc)
        with faults.active(plan):
            for batch in batches:
                svc.apply_batch(batch)
        assert plan.probes, "workload traversed no faultpoints"
        assert all(probe_consistent(p, refs) for p in plan.probes)
        assert len(plan.edge_reads) == len(plan.probes)
        for view, sub_epoch, (verts, sub_edges) in plan.edge_reads:
            committed = prefix_edges[view.batches_applied]
            assert view.edges == committed
            assert sub_epoch == view.epoch
            assert set(sub_edges) == committed
            assert verts == {v for e in committed for v in e}
        # Mid-apply reads trail the head by exactly the in-flight batch.
        assert {p.staleness for p in plan.probes} == {1}
        epochs = [p.epoch for p in plan.probes]
        assert epochs == sorted(epochs)  # reads never go back in time

    @pytest.mark.faults
    def test_chaos_trials_with_readers_armed(self):
        report = run_chaos(
            vertices=60, batch_size=25, trials=3, seed=0, trace=True
        )
        assert report.ok
        for trial in report.trials:
            assert trial.fired and trial.parity
            assert trial.reads_probed > 0
            assert trial.reads_consistent == trial.reads_probed
            assert trial.max_read_staleness <= 1
            row = trial.to_json_dict()
            assert row["reads_probed"] == trial.reads_probed
            assert row["reads_consistent"] == trial.reads_consistent

    @pytest.mark.faults
    def test_mid_rollback_reads_serve_last_committed_epoch(self):
        svc = CoreService(
            "pldsopt", n_hint=128, retry=RetryPolicy(max_attempts=3)
        )
        batches = insertion_batches(EDGES, 40, seed=5)
        svc.apply_batch(batches[0])
        committed = dict(svc.coreness_map())
        epoch = svc.reader().epoch
        plan = ReadProbePlan([faults.FaultPoint("service.apply", 1)])
        plan.bind(svc)
        with faults.active(plan):
            t = svc.apply_batch(batches[1])
        assert t.rolled_back and plan.fired
        # Every read interleaved with the failed attempt, the rollback,
        # and the retry served the pre-batch committed epoch.
        mid = [p for p in plan.probes if p.epoch == epoch]
        assert mid and all(dict(p.estimates) == committed for p in mid)
        assert all(p.staleness == 1 for p in mid)
        assert svc.reader().epoch > epoch  # retry committed and published


# ---------------------------------------------------------------------------
# Reads during degradation (quarantine + rebuild)
# ---------------------------------------------------------------------------


def _corrupt(svc: CoreService) -> None:
    """Desynchronize the engine from the mirror behind the service's back."""
    svc._adapter.update(Batch(insertions=[(900, 901)]))


class TestReadsDuringDegradation:
    @pytest.mark.faults
    @pytest.mark.parametrize("algorithm", QUERYVIEW_ALGOS)
    def test_mid_rebuild_reads_serve_committed_epoch(self, algorithm):
        svc = CoreService(algorithm, n_hint=1024, audit=AuditPolicy("every"))
        svc.apply_batch(Batch(insertions=EDGES[:60]))
        pre_epoch = svc.reader().epoch
        _corrupt(svc)
        plan = ReadProbePlan()
        plan.bind(svc)
        with faults.active(plan):
            t = svc.apply_batch(Batch(insertions=EDGES[60:90]))
        assert t.degraded and svc.degraded
        during = [p for p in plan.probes if p.degraded]
        assert during, "rebuild traversed no faultpoints"
        # Mid-quarantine/rebuild reads all served the epoch published at
        # the batch's commit — never a half-rebuilt state — and reported
        # the live degraded flag before the degraded epoch existed.
        assert {p.epoch for p in during} == {t.read_epoch}
        assert all(p.staleness <= 1 for p in during)
        # Reads before the commit served the pre-batch epoch, undegraded.
        before = [p for p in plan.probes if not p.degraded]
        assert all(p.epoch == pre_epoch for p in before)
        # The rebuild republished: readers now see the healthy state.
        reader = svc.reader()
        assert reader.epoch > t.read_epoch
        assert reader.degraded and reader.view.degraded
        assert reader.coreness_map().value == svc.coreness_map()

    @pytest.mark.faults
    @pytest.mark.parametrize("algorithm", ("lds",) + QUERYVIEW_ALGOS)
    def test_degraded_service_republishes_for_readers(self, algorithm):
        svc = CoreService(algorithm, n_hint=1024, audit=AuditPolicy("every"))
        svc.apply_batch(Batch(insertions=EDGES[:60]))
        _corrupt(svc)
        t = svc.apply_batch(Batch(insertions=EDGES[60:90]))
        assert t.degraded
        reader = svc.reader()
        assert reader.epoch > t.read_epoch
        assert reader.degraded
        assert reader.coreness_map().value == svc.coreness_map()
        assert reader.staleness == 0
        # Subsequent batches keep publishing fresh epochs while degraded.
        before = reader.epoch
        svc.apply_batch(Batch(insertions=EDGES[90:100]))
        assert reader.epoch > before
        assert reader.coreness_map().value == svc.coreness_map()


# ---------------------------------------------------------------------------
# Epoch monotonicity across snapshot/restore and journal recovery
# ---------------------------------------------------------------------------


class TestEpochMonotonicity:
    def test_restore_never_rewinds_the_epoch(self):
        svc = CoreService("pldsopt", n_hint=128)
        batches = insertion_batches(EDGES, 40, seed=9)
        svc.apply_batch(batches[0])
        snap = svc.snapshot()
        assert snap.read_epoch == svc.read_epoch
        svc.apply_batch(batches[1])
        epoch = svc.reader().epoch
        svc.restore(snap)
        reader = svc.reader()
        assert reader.epoch > epoch  # restore publishes a *newer* epoch
        assert reader.coreness_map().value == snap.coreness_map()
        assert reader.staleness == 0

    def test_from_journal_resumes_monotone_epochs(self):
        svc = CoreService("pldsopt", n_hint=128)
        for batch in insertion_batches(EDGES, 40, seed=9):
            svc.apply_batch(batch)
        recovered = CoreService.from_journal(
            svc.journal,
            "pldsopt",
            n_hint=128,
            epoch_start=svc.read_epoch,
        )
        # The recovered service's first published epoch is strictly newer
        # than anything the crashed incarnation handed out.
        assert recovered.reader().epoch > svc.read_epoch
        assert recovered.reader().coreness_map().value == svc.coreness_map()

    def test_epoch_start_validation(self):
        with pytest.raises(ValueError, match="epoch_start"):
            CoreService("plds", n_hint=16, epoch_start=-1)


# ---------------------------------------------------------------------------
# The published epoch is the committed state a rollback rebuilds from
# ---------------------------------------------------------------------------

#: Every engine publishing its own copy-on-write level image.
ASYNC_READ_ALGOS = tuple(
    k for k in algorithm_keys() if algorithm_spec(k).async_reads
)


def _engine_levels(svc: CoreService) -> dict[int, int]:
    impl = svc.engine
    return {v: impl.level(v) for v in impl.vertices()}


def _assert_epoch_is_committed_state(svc: CoreService, live: set) -> None:
    view = svc.reader().view
    assert dict(view.levels) == _engine_levels(svc)
    assert view.edges == live == svc._edges


@pytest.mark.parametrize("algorithm", ASYNC_READ_ALGOS)
def test_published_levels_and_edges_match_engine_and_mirror(algorithm):
    assert "plds-sharded" in ASYNC_READ_ALGOS
    batches = insertion_batches(EDGES, 40, seed=6) + deletion_batches(
        EDGES[:70], 30, seed=6
    )
    svc = CoreService(algorithm, n_hint=32, audit=AuditPolicy("every"))
    live: set = set()
    _assert_epoch_is_committed_state(svc, live)
    snap = None
    for i, batch in enumerate(batches):
        svc.apply_batch(batch)
        live |= set(batch.insertions)
        live -= set(batch.deletions)
        _assert_epoch_is_committed_state(svc, live)
        if i == 2:
            snap, snap_live = svc.snapshot(), set(live)
    assert svc.telemetry and not svc.degraded
    replayed = CoreService.from_journal(svc.journal, algorithm, n_hint=32)
    _assert_epoch_is_committed_state(replayed, live)
    svc.restore(snap)
    _assert_epoch_is_committed_state(svc, snap_live)
    _corrupt(svc)
    tail = Batch(insertions=[e for e in EDGES if e not in snap_live][:10])
    assert svc.apply_batch(tail).degraded
    _assert_epoch_is_committed_state(svc, snap_live | set(tail.insertions))
