"""Chaos harness: randomized fault injection against the serving layer.

The fault substrate (:mod:`repro.faults`) can crash the stack at any of
its named sites; the transactional serving layer (:mod:`repro.service`)
claims it recovers from every such crash with **bit-identical** final
coreness state.  This module turns that claim into a repeatable
experiment:

1. run the workload once with no faults → the *baseline* coreness map;
2. run it once more under a recording plan → the fault-site *census*
   (how many times each site is reached, i.e. which crashes are even
   possible on this workload);
3. for each trial, draw a seeded :func:`repro.faults.random_plan` (one
   armed fault at a uniformly random live site/hit), run the same
   workload under it, and compare the final ``coreness_map()`` against
   the baseline.

A trial passes only if the fault actually fired, the service rolled back
and retried, and the end state is exactly the baseline.  The report is
JSON-serializable for CI (the ``chaos-smoke`` job runs ``repro chaos``
on a small power-law workload with a fixed seed).

The workload interleaves insertion and deletion batches of a
Barabási–Albert graph — deletions are required to make the
``plds.desaturate`` site (RebalanceDeletions) reachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .. import faults
from ..graphs.generators import barabasi_albert
from ..graphs.streams import Batch, deletion_batches, insertion_batches
from ..obs.metrics import MetricsRegistry, collecting
from ..obs.timeline import Timeline, sampling
from ..obs.tracing import Tracer, tracing
from ..service import AuditPolicy, CoreService, RetryPolicy

__all__ = [
    "ChaosReport",
    "ChaosTrial",
    "ReadProbe",
    "ReadProbePlan",
    "chaos_workload",
    "probe_consistent",
    "run_chaos",
]


@dataclass(frozen=True)
class ReadProbe:
    """One wait-free read taken *at a faultpoint* of a chaos run.

    ``estimates`` is the published epoch's (immutable) coreness mapping —
    held by reference, which is exactly what the path-copying publication
    protocol makes safe: a published epoch, and every chunk it shares
    with later epochs, is never mutated again.
    """

    site: str
    epoch: int
    batches_applied: int
    staleness: int
    degraded: bool
    estimates: Mapping[int, float]


class ReadProbePlan(faults.FaultPlan):
    """A :class:`~repro.faults.FaultPlan` that reads at every faultpoint.

    Each traversal of any fault site first issues a wait-free read
    through the service's :meth:`~repro.service.CoreService.reader`
    handle — recording the served epoch, its staleness, and the full
    coreness mapping — and only then defers to the base plan (so an
    armed point still fires).  Because the sites sit *inside* the apply
    path (mid-cascade, mid-rollback, mid-rebuild), the recorded probes
    are reads interleaved at every crash point of the run; checking each
    against the matching batch-prefix reference map is the
    linearizability argument for the read path.
    """

    def __init__(self, points: Iterable[faults.FaultPoint] = ()) -> None:
        super().__init__(points)
        self.reader = None
        self.probes: list[ReadProbe] = []

    def bind(self, service) -> None:
        """Attach the service whose published epochs the probes read."""
        self.reader = service.reader()

    def hit(self, site: str) -> None:
        reader = self.reader
        if reader is not None:
            view = reader.view
            self.probes.append(
                ReadProbe(
                    site=site,
                    epoch=view.epoch,
                    batches_applied=view.batches_applied,
                    staleness=reader.staleness,
                    degraded=reader.degraded,
                    estimates=view.estimates,
                )
            )
        super().hit(site)


def probe_consistent(
    probe: ReadProbe, references: Sequence[Mapping[int, float]]
) -> bool:
    """Is one probed read prefix-consistent and within the staleness bound?

    ``references[k]`` must be the coreness map of a fault-free serial run
    after its first ``k`` batches.  A probe passes iff it served exactly
    the committed-prefix state it claims (``references[batches_applied]``)
    and trailed the write head by at most the one in-flight batch.
    """
    return (
        probe.staleness <= 1
        and probe.batches_applied < len(references)
        and dict(probe.estimates) == references[probe.batches_applied]
    )


@dataclass(frozen=True)
class ChaosTrial:
    """Outcome of one workload run under one randomized fault plan."""

    seed: int
    site: str
    hit_number: int
    fired: bool
    parity: bool
    rolled_back_batches: int
    total_attempts: int
    degraded: bool
    error: str | None = None
    #: :meth:`BatchTelemetry.to_dict` rows for the batches that rolled
    #: back or degraded during this trial — the recovery story, serialized
    #: through the one telemetry path.
    recovery_telemetry: tuple[dict, ...] = ()
    #: wait-free reads issued at faultpoints (``--trace`` runs only) and
    #: how many matched their committed-prefix reference within the
    #: one-batch staleness bound.
    reads_probed: int = 0
    reads_consistent: int = 0
    max_read_staleness: int = 0
    #: traversals slowed by an armed stall window (``stall_depth`` runs);
    #: parity must hold regardless — stalls add depth, never wrong state.
    stalled_hits: int = 0

    @property
    def ok(self) -> bool:
        """Did the fault fire *and* the service recover bit-identically?"""
        return (
            self.fired
            and self.parity
            and self.error is None
            and self.reads_consistent == self.reads_probed
        )

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "site": self.site,
            "hit_number": self.hit_number,
            "fired": self.fired,
            "parity": self.parity,
            "rolled_back_batches": self.rolled_back_batches,
            "total_attempts": self.total_attempts,
            "degraded": self.degraded,
            "error": self.error,
            "ok": self.ok,
            "recovery_telemetry": list(self.recovery_telemetry),
            "reads_probed": self.reads_probed,
            "reads_consistent": self.reads_consistent,
            "max_read_staleness": self.max_read_staleness,
            "stalled_hits": self.stalled_hits,
        }


@dataclass(frozen=True)
class ChaosReport:
    """Full chaos-run record: workload, census, and per-trial outcomes."""

    algorithm: str
    vertices: int
    batch_size: int
    seed: int
    updates: int
    batches: int
    census: dict[str, int] = field(repr=False)
    trials: tuple[ChaosTrial, ...] = field(repr=False, default=())
    #: baseline run's span forest (``Span.to_dict`` trees) when the
    #: experiment ran with tracing on; empty otherwise.
    trace: tuple[dict, ...] = field(repr=False, default=())
    #: metrics-registry JSON dump covering the whole experiment (baseline
    #: plus every trial) when tracing was on; ``None`` otherwise.
    metrics: dict | None = field(repr=False, default=None)
    #: per-batch delta-encoded metric timeline over the whole experiment
    #: (:meth:`repro.obs.timeline.Timeline.to_json_dict`) when tracing
    #: was on; ``None`` otherwise.
    timeline: dict | None = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return bool(self.trials) and all(t.ok for t in self.trials)

    def to_json_dict(self) -> dict:
        data = {
            "format": 1,
            "algorithm": self.algorithm,
            "vertices": self.vertices,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "updates": self.updates,
            "batches": self.batches,
            "census": dict(self.census),
            "trials": [t.to_json_dict() for t in self.trials],
            "ok": self.ok,
        }
        if self.trace:
            data["trace"] = list(self.trace)
        if self.metrics is not None:
            data["metrics"] = self.metrics
        if self.timeline is not None:
            data["timeline"] = self.timeline
        return data


def chaos_workload(
    vertices: int,
    batch_size: int,
    seed: int,
    attach: int = 3,
    delete_fraction: float = 0.5,
) -> list[Batch]:
    """A mixed insert-then-delete stream over a power-law graph.

    All edges of a Barabási–Albert graph are inserted in batches, then a
    ``delete_fraction`` of them deleted in batches — enough Invariant-2
    pressure to make every fault site (including ``plds.desaturate``)
    reachable.
    """
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError("delete_fraction must be in [0, 1]")
    edges = barabasi_albert(vertices, attach, seed=seed)
    doomed = edges[: int(len(edges) * delete_fraction)]
    return insertion_batches(edges, batch_size, seed=seed) + deletion_batches(
        doomed, batch_size, seed=seed
    )


def _serve(
    batches: Sequence[Batch],
    algorithm: str,
    n_hint: int,
    plan: faults.FaultPlan | None,
    on_commit=None,
) -> CoreService:
    service = CoreService(
        algorithm,
        n_hint=n_hint,
        retry=RetryPolicy(max_attempts=3),
        audit=AuditPolicy("on-recovery"),
    )
    if plan is None:
        for batch in batches:
            service.apply_batch(batch)
            if on_commit is not None:
                on_commit(service)
        return service
    bind = getattr(plan, "bind", None)
    if bind is not None:
        bind(service)
    with faults.active(plan):
        for batch in batches:
            service.apply_batch(batch)
    return service


def run_chaos(
    algorithm: str = "pldsopt",
    vertices: int = 150,
    batch_size: int = 50,
    trials: int = 8,
    seed: int = 0,
    delete_fraction: float = 0.5,
    trace: bool = False,
    stall_depth: int = 0,
) -> ChaosReport:
    """Run the chaos experiment; see the module docstring for the design.

    Raises ``ValueError`` if the workload leaves *no* fault site
    reachable (that would make every trial vacuous, not a pass).

    With ``trace`` on, the baseline run executes under a tracer (its span
    forest lands in :attr:`ChaosReport.trace`) and the whole experiment —
    baseline plus trials — under one metrics registry
    (:attr:`ChaosReport.metrics`), so faultpoint fires and service
    retries/rollbacks are visible in the report.  ``trace`` also arms the
    readers: the baseline run records the coreness map after every batch
    prefix, each trial's fault plan is upgraded to a
    :class:`ReadProbePlan` that issues a wait-free read at every
    faultpoint traversal, and every probed read is checked against its
    committed-prefix reference (see :func:`probe_consistent`) — the
    linearizability check the mvcc test suite pins.

    ``stall_depth > 0`` additionally arms a
    :class:`~repro.faults.StallPoint` on ``service.apply`` over the
    middle half of each trial (slow-apply injection): recovery and the
    parity/read-consistency gates must hold under combined crash + stall
    pressure, and the trial reports how many traversals were slowed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    batches = chaos_workload(
        vertices, batch_size, seed, delete_fraction=delete_fraction
    )
    n_hint = vertices + 1

    registry = MetricsRegistry() if trace else None
    timeline = Timeline(registry) if trace else None
    trace_dicts: tuple[dict, ...] = ()
    references: list[dict] | None = None
    if trace:
        references = [{}]  # prefix 0: no batches applied yet
        record = lambda svc: references.append(dict(svc.coreness_map()))  # noqa: E731
        tracer = Tracer()
        with collecting(registry), tracing(tracer), sampling(timeline):
            baseline = _serve(
                batches, algorithm, n_hint, None, on_commit=record
            ).coreness_map()
        trace_dicts = tuple(s.to_dict() for s in tracer.roots)
    else:
        baseline = _serve(batches, algorithm, n_hint, None).coreness_map()

    census = faults.recording_plan()
    _serve(batches, algorithm, n_hint, census)
    if not any(census.counts.values()):
        raise ValueError("workload reaches no fault site; nothing to test")

    results: list[ChaosTrial] = []
    for i in range(trials):
        plan = faults.random_plan(seed + i, census.counts)
        if references is not None:
            plan = ReadProbePlan(plan.points)
        if stall_depth:
            apply_hits = census.counts["service.apply"]
            plan.stall(
                "service.apply",
                stall_depth,
                first_hit=max(1, apply_hits // 4),
                last_hit=max(1, (3 * apply_hits) // 4),
            )
        point = plan.points[0]
        error: str | None = None
        service: CoreService | None = None
        try:
            if registry is not None:
                # One registry + timeline across every trial: ticks are
                # per-service batch serials, so they restart at 1 per
                # trial — the deltas still compose into one experiment
                # history (all deterministic).
                with collecting(registry), sampling(timeline):
                    service = _serve(batches, algorithm, n_hint, plan)
            else:
                service = _serve(batches, algorithm, n_hint, plan)
        except Exception as exc:  # recovery failed: the finding we hunt
            error = f"{type(exc).__name__}: {exc}"
        probes = getattr(plan, "probes", ())
        results.append(
            ChaosTrial(
                seed=seed + i,
                site=point.site,
                hit_number=point.hit_number,
                fired=bool(plan.fired),
                parity=(
                    service is not None
                    and service.coreness_map() == baseline
                ),
                rolled_back_batches=(
                    sum(t.rolled_back for t in service.telemetry)
                    if service is not None
                    else 0
                ),
                total_attempts=(
                    sum(t.attempts for t in service.telemetry)
                    if service is not None
                    else 0
                ),
                degraded=service.degraded if service is not None else False,
                error=error,
                recovery_telemetry=tuple(
                    t.to_dict()
                    for t in (service.telemetry if service is not None else ())
                    if t.rolled_back or t.degraded
                ),
                reads_probed=len(probes),
                reads_consistent=sum(
                    1
                    for p in probes
                    if probe_consistent(p, references or [])
                ),
                max_read_staleness=max(
                    (p.staleness for p in probes), default=0
                ),
                stalled_hits=plan.stalled_hits,
            )
        )
    return ChaosReport(
        algorithm=algorithm,
        vertices=vertices,
        batch_size=batch_size,
        seed=seed,
        updates=sum(len(b) for b in batches),
        batches=len(batches),
        census=dict(census.counts),
        trials=tuple(results),
        trace=trace_dicts,
        metrics=registry.to_json_dict() if registry is not None else None,
        timeline=timeline.to_json_dict() if timeline is not None else None,
    )
