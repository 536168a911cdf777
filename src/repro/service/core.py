"""`CoreService`: a batch-serving session over one registered engine.

The ROADMAP's north star is serving batched updates and coreness queries
at production scale (sharding, async reads, caching).  ``CoreService``
is the seam those PRs extend: one session object that

- owns the committed edge set (the one graph of record, changed only
  at commit points) plus a registry-selected engine (any
  :func:`repro.registry.make_adapter` key, or a Section-8 framework
  application hosted on the PLDS);
- accepts *raw* update streams — :meth:`CoreService.apply_updates`
  preprocesses them per Section 8 (dedupe by timestamp, validate against
  the current graph) via :func:`repro.graphs.streams.preprocess_batch` —
  or :class:`~repro.graphs.streams.Batch` objects, which
  :meth:`CoreService.apply_batch` checks against the batch contract
  (:func:`repro.graphs.streams.check_batch`) before journaling them;
- applies every batch **transactionally**: the batch is journaled to a
  write-ahead :class:`~repro.graphs.streams.UpdateJournal` before the
  engine sees it, and any exception mid-apply (including an
  :class:`~repro.faults.InjectedFault` from the fault-injection
  substrate) rolls the engine back to the last committed state and
  retries per a :class:`RetryPolicy`;
- audits engine health per an :class:`AuditPolicy` and, on a failed
  audit, quarantines the engine and **degrades gracefully** — rebuilding
  from the committed edge set via the registry so queries keep answering
  within the ``(2+ε)`` guarantee (exact static recompute as last
  resort);
- answers coreness / core-membership / core-subgraph queries against the
  *current* state, or against a :class:`ServiceSnapshot` so reads can
  proceed consistently while later batches apply — and publishes an
  immutable :class:`~repro.core.query.EpochSnapshot` at every commit so
  :meth:`CoreService.reader` handles serve **wait-free reads** mid-batch
  with a provable one-in-flight-batch staleness bound (the
  asynchronous-reads model of Liu–Shun–Zablotchi);
- emits per-batch :class:`BatchTelemetry` — metered work/depth, wall
  time, the simulated parallel running time ``T_p`` under
  :class:`~repro.parallel.scheduler.BrentScheduler`, and the
  transaction outcome (``attempts``, ``rolled_back``, ``degraded``).

Example
-------
>>> from repro.service import CoreService
>>> from repro.graphs.streams import EdgeUpdate
>>> svc = CoreService("plds", n_hint=100)
>>> t = svc.apply_updates([
...     EdgeUpdate(0, 1, True), EdgeUpdate(1, 2, True),
...     EdgeUpdate(0, 2, True), EdgeUpdate(0, 2, True),  # duplicate: dropped
... ])
>>> (t.insertions, t.attempts, svc.coreness(0) >= 1.0)
(3, 1, True)
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .. import faults as _faults
from .admission import Admission, AdmissionController, AdmissionPolicy, LoadSignals
from ..obs import metrics as _metrics
from ..obs import recorder as _recorder
from ..obs import timeline as _timeline
from ..obs import tracing as _tracing
from ..core.invariants import structure_matches_edges
from ..core.plds import PLDS
from ..core.query import (
    EMPTY_EPOCH,
    CorenessQueries,
    EpochImage,
    EpochSnapshot,
    QueryView,
)
from ..faults import InjectedFault
from ..graphs import canonical_edge
from ..graphs.streams import (
    Batch,
    EdgeUpdate,
    UpdateJournal,
    check_batch,
    preprocess_batch,
)
from ..parallel.engine import Cost
from ..parallel.scheduler import BrentScheduler
from ..registry import (
    DynamicKCoreAdapter,
    algorithm_spec,
    make_adapter,
    make_application,
    rebuild_adapter,
)

__all__ = [
    "AuditPolicy",
    "BatchTelemetry",
    "CoreService",
    "ReadResult",
    "RetryPolicy",
    "ServiceReader",
    "ServiceSnapshot",
]

#: Registry key of the degradation ladder's last rung: exact static
#: recompute per batch — always correct, hence trivially within (2+ε).
_LAST_RESORT = "exactkcore"


@dataclass(frozen=True)
class RetryPolicy:
    """How :meth:`CoreService.apply_batch` reacts to a failed attempt.

    Only *transient* failures are worth retrying — by default exactly
    :class:`~repro.faults.InjectedFault` (the substrate's model of a
    crash that will not recur); any other exception re-raises
    immediately after rollback.  A batch that breaks the batch contract
    never gets here: :meth:`CoreService.apply_batch` rejects it before
    journaling, with nothing to roll back.  Backoff is deterministic
    and **metered as depth** on the engine's tracker (attempt ``k``
    waits ``backoff_depth * 2^(k-1)`` depth units), never a wall-clock
    sleep, so recovery cost shows up in the same simulated-time
    currency as everything else.
    """

    max_attempts: int = 3
    backoff_depth: int = 8
    retry_on: tuple[type[BaseException], ...] = (InjectedFault,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_depth < 0:
            raise ValueError("backoff_depth must be >= 0")

    def backoff_for(self, failed_attempts: int) -> int:
        """Depth units charged before retry number ``failed_attempts + 1``."""
        return self.backoff_depth * (2 ** (failed_attempts - 1))


@dataclass(frozen=True)
class AuditPolicy:
    """When the service audits its engine against the committed edges.

    - ``"never"``: no auditing (zero overhead);
    - ``"on-recovery"`` (the default): audit only after a batch that
      needed a rollback — zero overhead on the happy path, a structural
      check exactly where corruption is most likely;
    - ``"every"``: audit every ``every_n``-th batch.
    """

    mode: str = "on-recovery"
    every_n: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("never", "every", "on-recovery"):
            raise ValueError(
                "audit mode must be 'never', 'every', or 'on-recovery'"
            )
        if self.every_n < 1:
            raise ValueError("every_n must be >= 1")

    def due(self, batch_id: int, recovered: bool) -> bool:
        """Is an audit due after serving batch ``batch_id``?"""
        if self.mode == "never":
            return False
        if self.mode == "on-recovery":
            return recovered
        return batch_id % self.every_n == 0


@dataclass(frozen=True)
class BatchTelemetry:
    """Cost and transaction outcome of serving one batch.

    ``t_p`` is the simulated parallel running time at the service's
    thread count (Brent's bound, ``W/p + D``); sequential engines are
    always charged at ``p = 1``.  ``attempts`` counts apply attempts
    (1 = clean first try); ``rolled_back`` is ``True`` when at least one
    attempt failed and the engine was restored to its pre-batch state;
    ``degraded`` is ``True`` when this batch's audit failed and the
    service switched to a rebuilt (possibly exact-static) engine.
    """

    batch_id: int
    insertions: int
    deletions: int
    work: int
    depth: int
    wall_seconds: float
    threads: int
    t_p: float
    attempts: int = 1
    rolled_back: bool = False
    degraded: bool = False
    #: serial of the read epoch published at this batch's commit.
    read_epoch: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view — the single serialization path the
        chaos and perf reports use (no ad-hoc field copying)."""
        return asdict(self)


@dataclass(frozen=True)
class ServiceSnapshot(CorenessQueries):
    """A consistent read view of the service at one batch boundary.

    Queries on the snapshot (:meth:`coreness`, :meth:`core_members`,
    inherited from the shared
    :class:`~repro.core.query.CorenessQueries` algebra) never change,
    no matter how many batches the live service applies afterwards —
    this is the consistency contract asynchronous readers rely on.
    ``engine_state`` additionally holds the engine's exact structural
    snapshot when the registry marks the algorithm ``snapshot``-capable
    (the PLDS family), letting :meth:`CoreService.restore` rebuild
    levels bit-identically instead of replaying the edge set.
    ``read_epoch`` records the service's epoch counter so a restore
    resumes publication monotonically instead of resetting.
    """

    snapshot_id: int
    algorithm: str
    batches_applied: int
    edges: tuple[tuple[int, int], ...]
    estimates: Mapping[int, float] = field(repr=False)
    engine_state: dict | None = field(default=None, repr=False)
    read_epoch: int = 0

    def _estimates_view(self) -> Mapping[int, float]:
        return self.estimates


class ServiceReader:
    """Wait-free read handle over a service's published epochs.

    Every query reads whatever :class:`~repro.core.query.EpochSnapshot`
    the service last *published* — publication happens only at commit
    points (after the journal commit, and again after a degradation
    rebuild), so a reader never observes a torn mid-apply state, a
    rolled-back attempt, or a half-rebuilt engine: mid-batch and
    mid-rollback reads serve the last committed epoch.  No locks, no
    waiting on :meth:`CoreService.apply_batch`.  Edge reads
    (:meth:`core_subgraph`, ``view.edges``) use the service's committed
    edge set, which changes only immediately before a publication, so
    they always match the served epoch.

    Each answer is a :class:`ReadResult` carrying the value plus the
    consistency metadata the caller needs to reason about freshness:
    the served ``epoch``, the ``staleness`` in batches behind the
    (possibly in-flight) head, and the service's live ``degraded``
    flag.  With observability on, each read emits a ``read.snapshot``
    span, a ``service.reads`` counter, and a ``service.read_staleness``
    histogram observation.
    """

    def __init__(self, service: "CoreService") -> None:
        self._service = service

    @property
    def view(self) -> EpochSnapshot:
        """The epoch snapshot currently served (itself immutable), with
        the committed edges frozen in by the first caller of the epoch
        (O(m)); the service then serves that copy, so later calls are O(1)."""
        svc = self._service
        view = svc._published
        if view.edges is None:
            view = svc._published = replace(view, edges=frozenset(svc._edges))
        return view

    @property
    def epoch(self) -> int:
        return self._service._published.epoch

    @property
    def degraded(self) -> bool:
        """Live degradation state: ``True`` from the moment the audit
        ladder engages (mid-quarantine/rebuild included), not merely
        once a degraded epoch is published."""
        svc = self._service
        return svc.degraded or svc._published.degraded

    @property
    def staleness(self) -> int:
        """Committed-plus-in-flight batches ahead of the served epoch.

        0 between batches; 1 while a batch (or its rollback/retry) is
        in flight — never more, which is the wait-free staleness bound
        the mvcc checker test pins.  Never negative: a publication
        records the committed count, which only a restore lowers, and a
        restore republishes before any read can interleave.
        """
        svc = self._service
        return svc.batches_applied + svc._in_flight - svc._published.batches_applied

    def _read(self, query: str, fn, *args) -> "ReadResult":
        """Serve ``fn(view, *args)`` from the published epoch.

        ``fn`` is an unbound :class:`EpochSnapshot` method, so an epoch
        query builds no closure (only :meth:`core_subgraph`, which peels
        the committed edges, does); the answer is wrapped positionally
        in a :class:`ReadResult`.
        """
        svc = self._service
        view = svc._published
        stale = svc.batches_applied + svc._in_flight - view.batches_applied
        degraded = svc.degraded or view.degraded
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("service.reads", query=query)
            mreg.observe("service.read_staleness", stale)
        tracer = _tracing.ACTIVE
        if tracer is None:
            value = fn(view, *args)
        else:
            with tracer.span(
                "read.snapshot",
                svc._tracker(),
                query=query,
                epoch=view.epoch,
                staleness=stale,
            ):
                value = fn(view, *args)
        return _new_result(ReadResult, (value, view.epoch, stale, degraded))

    def coreness(self, v: int) -> "ReadResult":
        return self._read("coreness", EpochSnapshot.coreness, v)

    def coreness_map(self) -> "ReadResult":
        return self._read("coreness_map", EpochSnapshot.coreness_map)

    def core_members(self, k: float) -> "ReadResult":
        return self._read("core_members", EpochSnapshot.core_members, k)

    def core_subgraph(self, k: int) -> "ReadResult":
        svc = self._service
        return self._read("core_subgraph", lambda view: svc.core_subgraph(k))

    def densest_estimate(self) -> "ReadResult":
        return self._read("densest_estimate", EpochSnapshot.densest_estimate)

    def level(self, v: int) -> "ReadResult":
        return self._read("level", EpochSnapshot.level, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceReader(epoch={self.epoch}, staleness={self.staleness}, "
            f"degraded={self.degraded})"
        )


class ReadResult(NamedTuple):
    """One wait-free read: the value plus its consistency metadata.

    A tuple type: it unpacks as ``value, epoch, staleness, degraded``
    and compares equal to the plain 4-tuple; attribute assignment
    raises ``AttributeError``.
    """

    value: Any
    #: epoch serial the value was served from.
    epoch: int
    #: batches (committed + in flight) the served epoch is behind.
    staleness: int
    #: the service's degradation flag at read time.
    degraded: bool


#: Positional construction without the generated ``__new__`` frame
#: (what ``NamedTuple._make`` does, minus its length check).
_new_result = tuple.__new__


class CoreService:
    """One serving session: registry-selected engine + committed edges.

    Every batch is journaled write-ahead; a mid-apply exception rolls
    the engine back to the committed state (:meth:`_roll_back`).  Under
    sharding a ``shard.apply`` fault is first retried by the affected
    shard alone; only what escapes it reaches this service-level
    rollback, and repeated failure walks the degradation ladder.

    Parameters
    ----------
    algorithm:
        A :mod:`repro.registry` algorithm key.  Ignored when
        ``application`` is given (framework applications always run on
        the PLDS their driver owns).
    n_hint:
        Expected vertex-id bound, forwarded to the engine.
    threads:
        Processor count used for the simulated ``T_p`` telemetry.
    scheduler:
        The :class:`BrentScheduler` converting (work, depth) to ``T_p``.
    application:
        Optional :mod:`repro.registry` application key ("matching",
        "cliques", ...).  The hosted app is exposed as
        :attr:`application`; coreness queries read the driver's PLDS.
    retry:
        The :class:`RetryPolicy` for failed apply attempts.
    audit:
        The :class:`AuditPolicy` scheduling invariant audits.
    **engine_kwargs:
        Forwarded to :func:`repro.registry.make_adapter` (``delta``,
        ``lam``, ...) or to the application factory.
    """

    def __init__(
        self,
        algorithm: str = "pldsopt",
        *,
        n_hint: int = 1024,
        threads: int = 60,
        scheduler: BrentScheduler | None = None,
        application: str | None = None,
        retry: RetryPolicy | None = None,
        audit: AuditPolicy | None = None,
        admission: AdmissionController | AdmissionPolicy | None = None,
        epoch_start: int = 0,
        **engine_kwargs: Any,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.n_hint = n_hint
        self.threads = threads
        self.scheduler = scheduler if scheduler is not None else BrentScheduler()
        self.application_key = application
        self.retry = retry if retry is not None else RetryPolicy()
        self.audit_policy = audit if audit is not None else AuditPolicy()
        if isinstance(admission, AdmissionPolicy):
            admission = AdmissionController(admission)
        #: optional admission controller; ``None`` means every
        #: :meth:`submit` is admitted unconditionally (apply_batch
        #: semantics, plus an ``Admission`` wrapper).
        self.admission = admission
        self._engine_kwargs = dict(engine_kwargs)
        self.telemetry: list[BatchTelemetry] = []
        self.journal = UpdateJournal()
        self.batches_applied = 0
        self._snapshot_counter = 0
        #: the committed canonical edge set — the service's only graph
        #: of record.  It changes only at a commit point, immediately
        #: before the next epoch is published.
        self._edges: set[tuple[int, int]] = set()
        self._driver = None
        self.application = None
        #: the engine (or driver) impounded by the last failed audit.
        self.quarantined: Any = None
        #: audit-failure reports, one tuple of violations per degradation.
        self.audit_failures: list[tuple[str, ...]] = []
        self.degraded = False
        #: registry key the service degraded to (None while healthy).
        self.degraded_to: str | None = None
        if application is not None:
            self.algorithm = "plds"
            self._driver, self.application = make_application(
                application, n_hint, **engine_kwargs
            )
            self._adapter = DynamicKCoreAdapter(
                "plds", self._driver.plds, is_exact=False
            )
        else:
            self.algorithm = algorithm
            self._adapter = make_adapter(algorithm, n_hint, **engine_kwargs)
        self.spec = algorithm_spec(self.algorithm)
        if epoch_start < 0:
            raise ValueError("epoch_start must be >= 0")
        #: monotone epoch counter; ``epoch_start`` lets a recovered
        #: service resume numbering past its predecessor's last epoch.
        self.read_epoch = epoch_start
        self._in_flight = False
        self._published: EpochSnapshot = EMPTY_EPOCH
        self._publish_epoch()  # epoch_start+1: the (empty) initial state

    # -- state -----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def engine(self) -> Any:
        """The live engine implementation (read-only observation seam).

        Observability consumers (``repro metrics``, dashboards) read
        level/group occupancy off this; mutating it bypasses the
        journal and the committed edge set and is undefined behavior.
        An application's driver shares its PLDS with the adapter.
        """
        return self._adapter.impl

    @property
    def total_cost(self) -> Cost:
        """Metered (work, depth) accumulated by the engine so far."""
        return self._adapter.cost

    def space_bytes(self) -> int:
        return self._adapter.space_bytes()

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self._edges

    def _lookup_edges(self, edges: Iterable[tuple[int, int]]) -> tuple[int, None]:
        """:func:`check_batch`'s membership step, over the committed
        edges."""
        return len(self._edges.intersection(edges)), None

    # -- updates ---------------------------------------------------------

    def apply_updates(self, updates: Iterable[EdgeUpdate]) -> BatchTelemetry:
        """Preprocess a raw update stream (Section 8) and apply it.

        Duplicates collapse to the latest timestamp per edge; insertions
        of present edges and deletions of absent edges are dropped.  The
        result is a valid, canonical batch by construction, so it takes
        the journaled path without a second check.
        """
        return self._apply(preprocess_batch(self, updates))

    def apply_batch(self, batch: Batch) -> BatchTelemetry:
        """Apply one batch of *unique, valid* updates, transactionally.

        The batch is first checked against the committed edges
        (:func:`~repro.graphs.streams.check_batch`): a batch that breaks
        the Section-8 contract raises ``ValueError`` before anything is
        journaled or applied, so it needs no rollback.  A valid batch is
        canonicalised, journaled write-ahead, then applied under the
        service's :class:`RetryPolicy`: a failed attempt rolls the
        engine back to the last committed state, charges the metered
        backoff, and retries (transient faults only); exhausted or
        non-transient failures re-raise with the journal record aborted
        and the service still serving the pre-batch state.  After a
        commit, the :class:`AuditPolicy` may trigger an invariant audit
        and — on failure — graceful degradation (see :meth:`audit`).

        Telemetry covers the successful attempt (plus backoff depth);
        rolled-back attempts' metering is discarded with their state.

        With a tracer installed (:mod:`repro.obs.tracing`), the whole
        method runs under a ``service.batch`` span whose (work, depth)
        delta equals this batch's :class:`BatchTelemetry` exactly on
        fault-free batches, with one ``service.apply`` child span per
        attempt; a rollback's engine rebuild breaks the equality for
        batches that needed a retry (by design — telemetry discards
        rolled-back metering, the span does not once the engine keeps
        its tracker).
        """
        ins, dels, _, _ = check_batch(batch, self._lookup_edges)
        return self._apply(Batch(insertions=list(ins), deletions=list(dels)))

    def _apply(self, batch: Batch) -> BatchTelemetry:
        """Serve a valid, canonical ``batch`` (journal, apply, commit)."""
        tracer = _tracing.ACTIVE
        if tracer is None:
            return self._serve_batch(batch, None)
        with tracer.span(
            "service.batch",
            self._tracker(),
            algorithm=self.algorithm,
            insertions=len(batch.insertions),
            deletions=len(batch.deletions),
        ):
            return self._serve_batch(batch, tracer)

    def _serve_batch(
        self, batch: Batch, tracer: "_tracing.Tracer | None"
    ) -> BatchTelemetry:
        # While in flight, concurrent readers serve the last published
        # epoch and report staleness 1 (one in-flight batch behind).
        self._in_flight = True
        try:
            return self._serve_batch_inflight(batch, tracer)
        finally:
            self._in_flight = False

    def _serve_batch_inflight(
        self, batch: Batch, tracer: "_tracing.Tracer | None"
    ) -> BatchTelemetry:
        mreg = _metrics.ACTIVE
        record = self.journal.begin(batch)
        restore_point = self._restore_point()
        attempts = 0
        rolled_back = False
        t0 = time.perf_counter()
        before = self._adapter.cost
        while True:
            attempts += 1
            attempt_span = (
                tracer.begin("service.apply", self._tracker(), attempt=attempts)
                if tracer is not None
                else None
            )
            try:
                plan = _faults.ACTIVE
                if plan is not None:
                    plan.hit("service.apply")
                    # Slow-apply injection: an armed StallPoint charges
                    # its depth here, inflating this batch's metered
                    # depth (and t_p) exactly like a slow engine would.
                    stall = plan.delay_for("service.apply")
                    if stall:
                        self._tracker().add(work=0, depth=stall)
                if self._driver is not None:
                    self._driver.update(batch)
                else:
                    self._adapter.update(batch)
                if attempt_span is not None:
                    tracer.end(attempt_span)
                break
            except Exception as exc:
                if attempt_span is not None:
                    # Unwinds any spans the failed cascade left open.
                    tracer.end(attempt_span, error=type(exc).__name__)
                self._roll_back(restore_point)
                rolled_back = True
                if mreg is not None:
                    mreg.inc("service.rollbacks")
                rec = _recorder.ACTIVE
                if rec is not None:
                    rec.note(
                        "service.rollback",
                        batch=self.batches_applied + 1,
                        attempt=attempts,
                        error=type(exc).__name__,
                    )
                before = self._adapter.cost
                if attempts >= self.retry.max_attempts or not isinstance(
                    exc, self.retry.retry_on
                ):
                    self.journal.abort(record)
                    raise
                if mreg is not None:
                    mreg.inc("service.retries")
                backoff = self.retry.backoff_for(attempts)
                if backoff:
                    self._tracker().add(work=0, depth=backoff)
        wall = time.perf_counter() - t0
        self.journal.commit(record)
        after = self._adapter.cost
        delta = Cost(after.work - before.work, after.depth - before.depth)
        self.batches_applied += 1
        # The commit point of the commit-publish protocol.  The committed
        # edges change only here, after the engine accepted the batch (a
        # rejected batch leaves them untouched) and immediately before
        # publication, so every read sees edges matching its epoch.  The
        # new state becomes readable *now* — before the audit, which may
        # take a long degradation detour that readers must not wait on.
        # The batch is canonical (check_batch keeps a caller's canonical
        # tuples), so the set shares the edge objects the journal record
        # already holds.
        self._edges.update(batch.insertions)
        self._edges.difference_update(batch.deletions)
        published = self._publish_epoch(self._commit_touched(batch))
        degraded = False
        if self.audit_policy.due(self.batches_applied, rolled_back):
            if tracer is not None:
                with tracer.span("service.audit", self._tracker()):
                    problems = self.audit()
            else:
                problems = self.audit()
            if mreg is not None:
                mreg.inc("service.audits")
            if problems:
                rec = _recorder.ACTIVE
                if rec is not None:
                    rec.trip(
                        "audit",
                        batch=self.batches_applied,
                        problems=len(problems),
                    )
                self._degrade(problems)
                degraded = True
                if mreg is not None:
                    mreg.inc("service.audits_failed")
                    mreg.inc("service.degraded")
        if mreg is not None:
            mreg.inc("service.batches")
        entry = BatchTelemetry(
            batch_id=self.batches_applied,
            insertions=len(batch.insertions),
            deletions=len(batch.deletions),
            work=delta.work,
            depth=delta.depth,
            wall_seconds=wall,
            threads=self.threads if self.spec.parallel else 1,
            t_p=self.scheduler.time(
                delta, self.threads if self.spec.parallel else 1
            ),
            attempts=attempts,
            rolled_back=rolled_back,
            degraded=degraded,
            read_epoch=published.epoch,
        )
        self.telemetry.append(entry)
        rec = _recorder.ACTIVE
        if rec is not None:
            rec.note(
                "service.batch",
                batch=entry.batch_id,
                work=entry.work,
                depth=entry.depth,
                attempts=entry.attempts,
                rolled_back=entry.rolled_back,
                degraded=entry.degraded,
            )
        tline = _timeline.ACTIVE
        if tline is not None:
            tline.sample(self.batches_applied, kind="batch")
        return entry

    def _tracker(self):
        return self._adapter.impl.tracker

    # -- admission-controlled serving (overload safety) ------------------

    def submit(
        self,
        batch: Batch,
        *,
        tenant: str = "default",
        now: float = 0.0,
        queue_depth: int = 0,
    ) -> Admission:
        """Admission-checked :meth:`apply_batch` — the multi-tenant door.

        With no :attr:`admission` controller the batch is applied
        unconditionally.  Otherwise the controller decides first —
        charging the tenant's token bucket the batch's update count (or
        the policy's fixed ``write_cost``) and honoring the queue-depth
        bound — and the batch is applied **only** on ``admitted``; a
        ``rejected``/``shed`` decision returns immediately with its
        ``retry_after`` hint and the engine never sees the batch.  After
        an admitted apply the controller observes :meth:`load_signals`,
        which is where backpressure engages and releases.

        ``now`` is simulated time (the ``t_p`` currency), ``queue_depth``
        is the caller's view of its pending pipeline — the service is
        synchronous, so queue state lives with the traffic source.
        """
        if self.admission is None:
            telemetry = self.apply_batch(batch)
            return Admission("admitted", tenant, "write", telemetry=telemetry)
        policy = self.admission.policy
        cost = policy.write_cost if policy.write_cost is not None else max(1, len(batch))
        decision = self.admission.admit(
            tenant,
            now=now,
            cost=cost,
            kind="write",
            queue_depth=queue_depth,
            degraded=self.degraded,
        )
        if not decision.admitted:
            return decision
        telemetry = self.apply_batch(batch)
        self.admission.observe(self.load_signals(), now=now)
        return replace(decision, telemetry=telemetry)

    def admit_read(
        self, tenant: str = "default", *, now: float = 0.0, cost: float | None = None
    ) -> Admission:
        """Admission decision for one read; reads never queue or shed.

        Callers pair this with :meth:`reader` — admitted reads are
        served wait-free from the published epoch; rejected reads carry
        a ``retry_after`` hint like writes do.
        """
        if self.admission is None:
            return Admission("admitted", tenant, "read")
        if cost is None:
            cost = self.admission.policy.read_cost
        return self.admission.admit(
            tenant, now=now, cost=cost, kind="read", degraded=self.degraded
        )

    def load_signals(self) -> LoadSignals:
        """Live overload signals for the admission controller.

        ``depth`` is the last batch's metered depth (includes injected
        ``service.apply`` stalls and retry backoff); ``rounds`` and
        ``shard_lag`` come from the sharded coordinator when the engine
        is sharded (a stalled shard inflates its scatter depth, so lag =
        slowest − fastest shard depth spikes), else stay 0.
        """
        impl = self._adapter.impl
        depth = self.telemetry[-1].depth if self.telemetry else 0
        rounds = int(getattr(impl, "last_rounds", 0))
        lag_fn = getattr(impl, "shard_lag", None)
        shard_lag = int(lag_fn()) if callable(lag_fn) else 0
        return LoadSignals(depth=depth, rounds=rounds, shard_lag=shard_lag)

    # -- epoch publication (the commit-publish protocol) -----------------

    def reader(self) -> ServiceReader:
        """A wait-free read handle serving the last *published* epoch.

        See :class:`ServiceReader`; readers keep answering — with
        epoch/staleness metadata — while :meth:`apply_batch` is mid
        apply, mid rollback, or mid degradation rebuild.
        """
        return ServiceReader(self)

    def _publish_epoch(self, touched: "set[int] | None" = None) -> EpochSnapshot:
        """Publish the current committed state as the next read epoch.

        Engines exposing the :class:`~repro.core.query.QueryView`
        surface publish by path copying (only the chunks of ``touched``
        entries are copied and re-derived); everything else — including
        the exact static engine the degradation ladder falls back to — is
        published from a full estimate sweep.  No edges are copied (see
        :attr:`ServiceReader.view`).  Callers must sit at a commit point:
        the journal commit, a degradation rebuild's end, or a snapshot
        restore.
        """
        impl = self._adapter.impl
        publish = getattr(impl, "publish_epoch", None)
        if publish is not None:
            snap = publish(touched)
            estimates = snap.estimates
            levels = snap.levels
        else:
            estimates = EpochImage(self._adapter.estimates())
            levels = EpochImage()
        self.read_epoch += 1
        view = EpochSnapshot(
            epoch=self.read_epoch,
            estimates=estimates,
            levels=levels,
            batches_applied=self.batches_applied,
            degraded=self.degraded,
        )
        self._published = view
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.gauge("service.read_epoch", self.read_epoch)
        return view

    def _commit_touched(self, batch: Batch) -> "set[int] | None":
        """Vertices whose epoch entries this commit may change — or
        ``None`` (publish fully) when the engine cannot bound its moves
        (rebuild happened, or it is not a QueryView engine).

        An entry is a level plus an estimate that depends only on the
        level and on whether the degree is zero.  Levels change only by
        moves, so the set is the engine's :attr:`last_moved` plus the
        endpoints whose degree crossed zero: insertion endpoints the
        previous image holds at estimate 0.0 or not at all, and deletion
        endpoints now at degree 0.  Both tests run here, at commit, so
        an engine driven without a service pays nothing for them."""
        impl = self._adapter.impl
        moved = getattr(impl, "last_moved", None)
        if moved is None:
            return None
        touched = set(moved)
        # The image the engine's publish path-copies from; every
        # non-zero estimate is at least (1+δ)^0 = 1.0.
        before = impl.read_view().estimates
        for v in chain.from_iterable(batch.insertions):
            if not before.get(v):
                touched.add(v)
        level_deg = impl._level_deg_of
        for v in chain.from_iterable(batch.deletions):
            pair = level_deg(v)
            if pair is None or pair[1] == 0:
                touched.add(v)
        return touched

    def _restore_point(self) -> dict | None:
        """Pre-batch rollback state, captured in O(1) at batch start.

        For snapshot-capable engines this is only the engine's
        :meth:`~repro.core.plds.PLDS.snapshot_header` — taken now
        because a Section-5.9 rebuild inside a failed attempt re-sizes
        ``n_hint``.  The rest of the pre-batch state is already held by
        the service: the committed edge set (updated only at the commit
        point) and the last published epoch's level image (see
        :meth:`_roll_back`).  ``None`` for everything rebuilt by
        replaying the committed edges.
        """
        if self._driver is None and self.spec.snapshot:
            return self._adapter.impl.snapshot_header()
        return None

    def _roll_back(self, restore_point: dict | None) -> None:
        """Put the engine back into the last *committed* state.

        Snapshot-capable engines are rebuilt bit-identically from a
        snapshot composed of ``restore_point`` (the batch-start header),
        the published epoch's levels, and the committed edges — the
        committed state, so an out-of-band edit of the engine does not
        survive a rollback.  Everything else replays the committed
        edges.  Only a failed attempt pays this O(n + m) work.
        """
        edges = sorted(self._edges)
        state = None
        if restore_point is not None:
            state = self._adapter.impl.compose_snapshot(
                restore_point, self._published.levels, edges
            )
        self._restore_engine(edges, state)

    # -- auditing and graceful degradation -------------------------------

    def audit(self) -> list[str]:
        """Audit the live engine against the committed edge set.

        For the level-structure engines (the PLDS family, including the
        sequential LDS, and the sharded coordinator) this runs the
        engine's ``check_invariants`` — Invariants 1–2 and U/L
        bookkeeping, which the coordinator runs shard by shard (each
        problem prefixed with the offending shard id) before auditing
        its ghost directory — plus edge-set agreement with the committed
        edges (:func:`~repro.core.invariants.structure_matches_edges`).
        Engines without a checkable level structure audit vacuously.
        Returns human-readable violations; empty list means healthy.
        """
        return self._audit_impl(self._adapter.impl)

    def _audit_impl(self, impl: Any) -> list[str]:
        if isinstance(impl, QueryView):
            # The PLDS family and the sharded coordinator (whose check
            # sweeps every shard plus the ghost directory).
            problems = list(impl.check_invariants())
            problems.extend(
                structure_matches_edges(impl, self._edges)
            )
            return problems
        return []

    def _degrade(self, problems: Sequence[str]) -> None:
        """Quarantine the failed engine and walk the degradation ladder.

        Rung 1 rebuilds the *same* algorithm from the committed edges via
        the registry (:func:`repro.registry.rebuild_adapter`); if the
        rebuild itself fails its audit, rung 2 swaps in the exact
        static-recompute engine (``exactkcore``) — slower, but its
        answers are exact, hence trivially within the ``(2+ε)`` bound.
        Hosted applications degrade by rebuilding driver + application
        from the committed edges; if even that audits dirty, the application is
        dropped and coreness serving falls through to rung 2.

        Readers are never blocked by the ladder: ``degraded`` flips at
        entry (so mid-quarantine/rebuild reads report it immediately)
        while they keep serving the last committed epoch; the rebuilt
        engine's estimates are republished as a fresh epoch once the
        ladder settles.
        """
        # Every exit path below ends degraded; setting it first makes
        # the flag visible to wait-free readers *during* the rebuild.
        self.degraded = True
        self.audit_failures.append(tuple(problems))
        rec = _recorder.ACTIVE
        if rec is not None:
            rec.trip(
                "degrade",
                rung="quarantine",
                batch=self.batches_applied,
                failures=len(self.audit_failures),
            )
        edges = sorted(self._edges)
        try:
            self._degrade_ladder(edges)
        finally:
            # The engine changed under the readers' feet (rebuild or
            # exact-static swap): publish its estimates as a new epoch.
            self._publish_epoch()

    def _degrade_ladder(self, edges: list[tuple[int, int]]) -> None:
        rec = _recorder.ACTIVE
        if self._driver is not None:
            self.quarantined = self._driver
            self._restore_engine(edges, None)
            if not self.audit():
                self.degraded_to = self.algorithm
                if rec is not None:
                    rec.trip("degrade", rung="rebuild", engine=self.algorithm)
                return
        else:
            self.quarantined = self._adapter
            try:
                candidate = rebuild_adapter(
                    self.algorithm, self.n_hint, edges, **self._engine_kwargs
                )
            except Exception:
                candidate = None
            if candidate is not None and not self._audit_impl(candidate.impl):
                self._adapter = candidate
                self.degraded_to = self.algorithm
                if rec is not None:
                    rec.trip("degrade", rung="rebuild", engine=self.algorithm)
                return
        # Last resort: exact static recompute from the committed edges.
        # Dropping a hosted application here is deliberate — coreness
        # queries keep answering (exactly) even when the framework layer
        # is beyond repair.
        self._adapter = rebuild_adapter(_LAST_RESORT, self.n_hint, edges)
        self._driver = None
        self.application = None
        self.algorithm = _LAST_RESORT
        self.spec = algorithm_spec(_LAST_RESORT)
        self.degraded_to = _LAST_RESORT
        if rec is not None:
            rec.trip("degrade", rung="exactkcore", engine=_LAST_RESORT)

    # -- queries ---------------------------------------------------------

    def coreness(self, v: int) -> float:
        """Current coreness estimate of ``v`` (0.0 for unknown vertices)."""
        impl = self._adapter.impl
        estimate = getattr(impl, "coreness_estimate", None)
        if estimate is not None:
            return float(estimate(v))
        return float(self._adapter.estimates().get(v, 0.0))

    def coreness_map(self) -> dict[int, float]:
        """Current estimates for every vertex the engine has seen."""
        return self._adapter.estimates()

    def core_members(self, k: float) -> set[int]:
        """Vertices admitted to the (approximate) k-core at value ``k``.

        For exact engines this is the true k-core membership.  For the
        PLDS family it is the Lemma-5.13 superset filter of
        :func:`repro.static_kcore.subgraphs.approx_k_core_candidates`
        (contains every true member, may admit low-coreness extras); for
        other approximate engines — including the sharded coordinator —
        a plain ``estimate >= k`` threshold on the (bit-identical)
        coreness estimates.  Level-structure engines (the PLDS family
        and the sharded coordinator) answer both rules with one level
        cut over the live engine
        (:meth:`~repro.core.query.QueryView.core_members`); only the
        other engines filter :meth:`coreness_map`.  A
        :class:`ServiceReader` applies the plain rule to the published
        epoch instead, so the two answers differ on the PLDS family.
        """
        impl = self._adapter.impl
        if isinstance(impl, PLDS) and k > 0:
            from ..static_kcore.subgraphs import approx_k_core_candidates

            return approx_k_core_candidates(impl, k)
        if isinstance(impl, QueryView):
            return impl.core_members(k)
        return {v for v, c in self.coreness_map().items() if c >= k}

    def core_subgraph(self, k: int) -> tuple[set[int], list[tuple[int, int]]]:
        """The *exact* k-core of the committed graph (vertices, edges).

        Computed by peeling the sorted committed edge set — exact
        regardless of which engine serves the fast approximate queries.
        """
        from ..static_kcore.subgraphs import k_core_subgraph

        return k_core_subgraph(sorted(self._edges), k)

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> ServiceSnapshot:
        """Freeze a consistent read view (and restore point) of the state."""
        engine_state = None
        if self._driver is None and self.spec.snapshot:
            engine_state = self._adapter.impl.to_snapshot()
        self._snapshot_counter += 1
        return ServiceSnapshot(
            snapshot_id=self._snapshot_counter,
            algorithm=self.algorithm,
            batches_applied=self.batches_applied,
            edges=tuple(sorted(self._edges)),
            estimates=self.coreness_map(),
            engine_state=engine_state,
            read_epoch=self.read_epoch,
        )

    def restore(self, snapshot: ServiceSnapshot) -> None:
        """Roll the service back to ``snapshot``.

        Snapshot-capable engines (PLDS family) are rebuilt bit-exactly
        from their structural snapshot; everything else — including
        hosted applications — is rebuilt by replaying the snapshotted
        edge set as one insertion batch.  The journal is an append-only
        log and is kept; :attr:`batches_applied` rewinds and
        :attr:`telemetry` is truncated to the snapshot's batch horizon so
        the two stay consistent (a telemetry row for a batch the service
        no longer reflects would be a lie).  Emits a ``service.restore``
        span and counter when observability is on.
        """
        if snapshot.algorithm != self.algorithm:
            raise ValueError(
                f"snapshot was taken from {snapshot.algorithm!r}, "
                f"this service runs {self.algorithm!r}"
            )
        tracer = _tracing.ACTIVE
        if tracer is None:
            self._restore_from(snapshot)
            return
        with tracer.span(
            "service.restore",
            self._tracker(),
            mode="snapshot",
            snapshot_id=snapshot.snapshot_id,
        ):
            self._restore_from(snapshot)

    def _restore_from(self, snapshot: ServiceSnapshot) -> None:
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("service.restores", mode="snapshot")
        self._restore_engine(snapshot.edges, snapshot.engine_state)
        self._edges = {canonical_edge(u, v) for u, v in snapshot.edges}
        self.batches_applied = snapshot.batches_applied
        self.telemetry = [
            t for t in self.telemetry if t.batch_id <= snapshot.batches_applied
        ]
        # Monotone epoch resumption: never re-issue a serial the live
        # service (or the snapshotted one) already published — readers
        # rely on epoch order agreeing with publication order.
        self.read_epoch = max(self.read_epoch, snapshot.read_epoch)
        self._publish_epoch()

    def _restore_engine(
        self,
        edges: Sequence[tuple[int, int]],
        engine_state: dict | None,
    ) -> None:
        """Put the engine into the state described by (edges, engine_state).

        Shared by :meth:`restore` (rewind to a snapshot) and the
        transactional rollback path (restore to the pre-batch state,
        whose edge set the committed edges still hold).  The
        engine's tracker is carried over on the exact-snapshot path so
        metering stays monotone across rollbacks.
        """
        if self._driver is not None:
            assert self.application_key is not None
            self._driver, self.application = make_application(
                self.application_key, self.n_hint, **self._engine_kwargs
            )
            self._adapter = DynamicKCoreAdapter(
                "plds", self._driver.plds, is_exact=False
            )
            if edges:
                self._driver.update(Batch(insertions=list(edges)))
        elif engine_state is not None:
            impl_cls = type(self._adapter.impl)
            self._adapter = DynamicKCoreAdapter(
                self.algorithm,
                impl_cls.from_snapshot(
                    engine_state, tracker=self._adapter.impl.tracker
                ),
                self.spec.exact,
            )
        else:
            self._adapter = make_adapter(
                self.algorithm, self.n_hint, **self._engine_kwargs
            )
            self._adapter.initialize(list(edges))

    # -- crash recovery --------------------------------------------------

    @classmethod
    def from_journal(
        cls,
        journal: UpdateJournal,
        algorithm: str = "pldsopt",
        **kwargs: Any,
    ) -> "CoreService":
        """Rebuild a service by replaying a journal's committed batches.

        The crash-recovery path: a process that persisted its write-ahead
        journal (:meth:`UpdateJournal.dump`) reconstructs the exact
        batch sequence — for deterministic engines the replayed service
        is bit-identical to the crashed one.  Pending and aborted records
        are skipped, matching their transaction semantics.

        The rebuilt service's telemetry covers the replayed batches (its
        own serving history), and the replay is observable: it counts as
        one ``service.restores{mode="journal"}`` and, when a tracer is
        active, runs inside a ``service.restore`` span.

        Epoch numbering stays monotone across the crash: pass the
        crashed service's last :attr:`read_epoch` as ``epoch_start``
        (forwarded to the constructor) and the recovered service resumes
        publishing *past* it — each replayed commit publishes the next
        serial — instead of restarting readers at epoch 0.
        """
        service = cls(algorithm, **kwargs)
        mreg = _metrics.ACTIVE
        if mreg is not None:
            mreg.inc("service.restores", mode="journal")
        tracer = _tracing.ACTIVE
        if tracer is None:
            service._replay(journal)
            return service
        with tracer.span("service.restore", service._tracker(), mode="journal"):
            service._replay(journal)
        return service

    def _replay(self, journal: UpdateJournal) -> None:
        """Apply the committed records in order, naming the ``seq`` of
        one that breaks the batch contract."""
        for record in journal.records:
            if record.status != "committed":
                continue
            try:
                self.apply_batch(record.batch())
            except ValueError as exc:
                raise ValueError(
                    f"journal record seq {record.seq} cannot be replayed: {exc}"
                ) from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host = (
            f"application={self.application_key!r}"
            if self.application_key
            else f"algorithm={self.algorithm!r}"
        )
        flags = ", DEGRADED" if self.degraded else ""
        return (
            f"CoreService({host}, m={self.num_edges}, "
            f"batches={self.batches_applied}{flags})"
        )
