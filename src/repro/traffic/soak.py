"""Chaos-armed soak harness: sustained multi-tenant load on one service.

:class:`SoakRunner` is a deterministic discrete-event simulation that
drives a single admission-controlled
:class:`~repro.service.CoreService` with a :class:`TrafficMix` for a
fixed *simulated* horizon:

- Each tenant's arrivals (Poisson / bursty / diurnal, seeded) pop off a
  shared event heap; each event is a read or a write per the tenant's
  ``read_fraction``.
- Writes take the next batch of the tenant's registered workload script
  (:func:`repro.registry.make_workload`, vertex ids offset into a
  tenant-private range so the interleaved scripts stay valid on the
  shared graph) and go through :meth:`CoreService.submit` — so every
  write is an explicit ``admitted`` / ``rejected`` / ``shed`` decision.
  Rejected and shed writes are *retried* by the tenant at the decision's
  ``retry_after`` hint (an open-loop client with backoff); the batch is
  consumed only once admitted, which keeps the script's edge validity.
- Admitted writes occupy a single simulated server: completion =
  ``max(arrival, server_free) + t_p`` with ``t_p`` from the batch's own
  :class:`~repro.service.BatchTelemetry`, and the backlog of unfinished
  completions is the ``queue_depth`` the admission controller bounds.
  Latency (completion − arrival) is therefore pure simulated time — the
  per-tenant p50/p99 in the artifact are bit-reproducible.
- Reads are wait-free through one :meth:`CoreService.reader` handle
  (hot-key-skewed key choice), each recording its served staleness.
- Chaos: a persistent fault plan stays installed for the whole run.
  With ``fault_rate > 0`` the runner keeps arming fresh single-crash
  :class:`~repro.faults.FaultPoint`\\ s (one in flight at a time) at
  sites the run actually traverses; a configured :class:`StallWindow`
  arms a :class:`~repro.faults.StallPoint` slow-shard/slow-apply stall
  between two simulated times — the backpressure trigger.
- With ``verify_reads`` (default) the plan is a sampling
  :class:`~repro.bench.chaos.ReadProbePlan`: wait-free reads taken at
  faultpoint traversals — i.e. mid-cascade, mid-rollback — are checked
  against the committed-prefix reference maps at the end of the run
  (zero tolerated violations, staleness ≤ 1), extending the chaos
  harness's linearizability argument to sustained load.

The output is a JSON SLO artifact (``SOAK_<label>.json``): per-tenant
admission accounting (every rejection accounted), latency percentiles,
read staleness, degraded and backpressure time, fault/stall tallies,
and the consistency block.  It
contains *no wall-clock values*, so rerunning the same config + seed
reproduces it bit-identically.
"""

from __future__ import annotations

import heapq
import math
import random
from contextlib import ExitStack
from dataclasses import dataclass

from .. import faults as _faults
from ..bench.chaos import ReadProbePlan, probe_consistent
from ..obs import metrics as _metrics
from ..obs import timeline as _timeline
from ..graphs.streams import Batch
from ..service import CoreService
from ..registry import make_workload
from ..service.admission import AdmissionController, AdmissionPolicy, TenantQuota
from .tenants import TenantSpec, TrafficMix, next_arrival_gap, pick_read_vertex

__all__ = ["StallWindow", "SoakConfig", "SoakRunner"]


@dataclass(frozen=True)
class StallWindow:
    """Inject a slow shard (or slow apply) between two simulated times.

    ``site=None`` auto-selects ``shard.apply`` for sharded runs (strided
    so roughly one shard per scatter stalls — see
    :class:`~repro.faults.StallPoint.every`) and ``service.apply``
    otherwise.
    """

    start: float
    end: float
    depth: int = 4000
    site: str | None = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("stall window needs 0 <= start < end")
        if self.depth < 1:
            raise ValueError("stall depth must be >= 1")

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "depth": self.depth,
            "site": self.site,
        }


@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak run needs; hashable inputs ⇒ replayable output."""

    mix: TrafficMix
    horizon: float = 600.0
    seed: int = 0
    algorithm: str = "pldsopt"
    shards: int | None = None
    threads: int = 60
    fault_rate: float = 0.0
    stall: StallWindow | None = None
    policy: AdmissionPolicy | None = None
    default_quota: TenantQuota | None = None
    verify_reads: bool = True
    probe_every: int = 7
    read_latency: float = 1.0
    sample_every: float = 25.0
    label: str = "soak"

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        if not (0 <= self.fault_rate < 1):
            raise ValueError("fault_rate must be in [0, 1)")
        if self.probe_every < 1:
            raise ValueError("probe_every must be >= 1")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.sample_every < 0:
            raise ValueError("sample_every must be >= 0 (0 disables)")


class _SoakProbePlan(ReadProbePlan):
    """A :class:`ReadProbePlan` that records every Nth probe only.

    A soak run traverses faultpoints tens of thousands of times; probing
    each would dominate the run.  Sampling every ``probe_every``-th
    traversal keeps the linearizability check dense (hundreds to
    thousands of probes) at bounded cost — the *fault* counters still
    advance on every traversal, so crash arming is unaffected.
    """

    def __init__(self, probe_every: int) -> None:
        super().__init__(())
        self.probe_every = probe_every
        self._traversals = 0

    def hit(self, site: str) -> None:
        self._traversals += 1
        if self._traversals % self.probe_every == 0:
            super().hit(site)  # probe + count (+ fire if armed)
        else:
            _faults.FaultPlan.hit(self, site)


class _TenantState:
    """Mutable per-tenant runtime: script cursor, rng, SLO accumulators."""

    def __init__(
        self, spec: TenantSpec, index: int, seed: int
    ) -> None:
        self.spec = spec
        self.rng = random.Random(seed * 1_000_003 + index)
        initial, batches = make_workload(
            spec.workload,
            spec.workload_size,
            spec.workload_rounds,
            seed=seed * 31 + index,
            batch_size=spec.batch_size,
        )
        self.initial = initial
        self.script = batches
        self.cursor = 0
        span = 0
        for u, v in initial:
            span = max(span, u + 1, v + 1)
        for batch in batches:
            for u, v in batch.insertions + batch.deletions:
                span = max(span, u + 1, v + 1)
        self.span = max(1, span)
        self.offset = 0  # assigned by the runner once all spans are known
        self.failed = False
        self.error: str | None = None
        self.write_latencies: list[float] = []
        self.read_latencies: list[float] = []
        self.max_staleness = 0
        self.counters: dict[str, int] = {
            "write_events": 0,
            "admitted": 0,
            "rejected": 0,
            "shed": 0,
            "retries": 0,
            "abandoned": 0,
            "exhausted": 0,
            "errors": 0,
            "rolled_back": 0,
            "attempts": 0,
            "degraded_batches": 0,
            "read_events": 0,
            "read_admitted": 0,
            "read_rejected": 0,
            "read_degraded": 0,
        }

    def shift(self, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
        off = self.offset
        return [(u + off, v + off) for u, v in edges]

    def next_batch(self) -> Batch | None:
        if self.cursor >= len(self.script):
            return None
        batch = self.script[self.cursor]
        return Batch(
            insertions=self.shift(batch.insertions),
            deletions=self.shift(batch.deletions),
        )


class SoakRunner:
    """Run one :class:`SoakConfig` to completion (or interruption).

    :meth:`run` executes the event loop and returns the report;
    :meth:`report` can be called at *any* point (the CLI calls it from
    the ``KeyboardInterrupt`` handler to flush a partial artifact with
    ``interrupted: true``).
    """

    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        self.states = [
            _TenantState(spec, i, config.seed)
            for i, spec in enumerate(config.mix.tenants)
        ]
        offset = 0
        for state in self.states:
            state.offset = offset
            offset += state.span
        quotas = {
            s.spec.name: s.spec.quota
            for s in self.states
            if s.spec.quota is not None
        }
        self.controller = AdmissionController(
            policy=config.policy or AdmissionPolicy(),
            quotas=quotas,
            default_quota=config.default_quota,
        )
        # `shards` routes the service through the sharded coordinator
        # (registry key "plds-sharded"); that is what makes the shard-lag
        # backpressure signal live.
        algorithm = "plds-sharded" if config.shards is not None else config.algorithm
        engine_kwargs: dict = {}
        if config.shards is not None:
            engine_kwargs["shards"] = config.shards
        self.svc = CoreService(
            algorithm,
            n_hint=max(64, offset),
            threads=config.threads,
            admission=self.controller,
            **engine_kwargs,
        )
        self.sharded = bool(self.svc.spec.sharded)
        if config.verify_reads:
            self.plan: _faults.FaultPlan = _SoakProbePlan(config.probe_every)
        else:
            self.plan = _faults.FaultPlan()
        # Continuous telemetry: a private registry (unless the caller
        # already installed one) sampled into a Timeline on a simulated
        # grid plus every committed batch — the artifact's `timeline`.
        if config.sample_every > 0:
            self.registry: _metrics.MetricsRegistry | None = (
                _metrics.MetricsRegistry()
            )
            self.timeline: _timeline.Timeline | None = _timeline.Timeline()
        else:
            self.registry = None
            self.timeline = None
        self.reader = self.svc.reader()
        #: committed-prefix reference maps: ``references[k]`` is the
        #: coreness map after the first ``k`` applied batches.
        self.references: list[dict[int, float]] = [{}]
        self._fault_rng = random.Random(config.seed * 7_919 + 13)
        self._fault_sites = ["service.apply", "plds.rise", "plds.desaturate"]
        if self.sharded:
            self._fault_sites.append("shard.apply")
        self._armed_count = 0
        self._stall_point: _faults.StallPoint | None = None
        self._stall_closed = False
        self._backlog: list[float] = []
        self._server_free = 0.0
        self._now = 0.0
        self._events = 0
        self._degraded_prev = False
        self._degraded_since: float | None = None
        self._degraded_time = 0.0
        self._degraded_entered = 0
        self._interrupted = False
        self._finished = False

    # -- the event loop -------------------------------------------------

    def run(self) -> dict:
        """Execute the soak; returns :meth:`report`'s artifact dict."""
        try:
            with ExitStack() as stack:
                if self.timeline is not None:
                    if _metrics.ACTIVE is None and self.registry is not None:
                        stack.enter_context(_metrics.collecting(self.registry))
                    stack.enter_context(_timeline.sampling(self.timeline))
                stack.enter_context(_faults.active(self.plan))
                if self.config.verify_reads:
                    assert isinstance(self.plan, ReadProbePlan)
                    self.plan.bind(self.svc)
                self._setup()
                self._loop()
            self._finished = True
        except KeyboardInterrupt:
            self._interrupted = True
            raise
        return self.report()

    def _setup(self) -> None:
        """Apply each tenant's initial edge set (outside admission)."""
        for state in self.states:
            if not state.initial:
                continue
            self.svc.apply_batch(Batch(insertions=state.shift(state.initial)))
            self._record_reference()

    def _loop(self) -> None:
        config = self.config
        heap: list[tuple[float, int, int, str]] = []
        seq = 0
        for i, state in enumerate(self.states):
            gap = next_arrival_gap(state.spec, state.rng, 0.0)
            if gap <= config.horizon:
                heapq.heappush(heap, (gap, seq, i, "arrival"))
                seq += 1
        tline = self.timeline
        next_sample = config.sample_every
        while heap:
            t, _, i, kind = heapq.heappop(heap)
            if t > config.horizon:
                break
            if tline is not None:
                # Sample on the simulated grid *before* serving the
                # event at t, so each tick captures exactly the state
                # up to its grid time regardless of arrival spacing.
                while next_sample <= t:
                    tline.sample(next_sample, kind="tick")
                    next_sample += config.sample_every
            self._now = t
            self._events += 1
            state = self.states[i]
            if kind == "arrival":
                nxt = t + next_arrival_gap(state.spec, state.rng, t)
                if nxt <= config.horizon:
                    heapq.heappush(heap, (nxt, seq, i, "arrival"))
                    seq += 1
                is_read = state.rng.random() < state.spec.read_fraction
            else:
                is_read = False  # retries are always writes
                state.counters["retries"] += 1
            if is_read:
                self._serve_read(state, t)
            else:
                retry_after = self._serve_write(state, t)
                if retry_after is not None:
                    retry_at = t + retry_after
                    if retry_at <= t:
                        # A hint smaller than float resolution at t must
                        # still advance the clock, or the heap replays
                        # the same instant forever.
                        retry_at = math.nextafter(t, math.inf)
                    if math.isfinite(retry_at) and retry_at <= config.horizon:
                        heapq.heappush(heap, (retry_at, seq, i, "retry"))
                        seq += 1
                    else:
                        state.counters["abandoned"] += 1
        self._close_degraded(self._now)
        if tline is not None:
            tline.sample(round(self._now, 9), kind="end")

    # -- writes ----------------------------------------------------------

    def _serve_write(self, state: _TenantState, t: float) -> float | None:
        """Process one write arrival; returns a retry delay or ``None``."""
        state.counters["write_events"] += 1
        if state.failed:
            state.counters["errors"] += 1
            return None
        batch = state.next_batch()
        if batch is None:
            state.counters["exhausted"] += 1
            return None
        self._update_stall(t)
        self._maybe_arm_fault()
        while self._backlog and self._backlog[0] <= t:
            heapq.heappop(self._backlog)
        depth = len(self._backlog)
        try:
            decision = self.svc.submit(
                batch, tenant=state.spec.name, now=t, queue_depth=depth
            )
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            # An apply that exhausted its retries: the engine rolled back
            # and the journal aborted, so the script head is still valid.
            # Park the tenant after repeated failures instead of looping.
            state.counters["errors"] += 1
            state.error = f"{type(exc).__name__}: {exc}"
            if state.counters["errors"] >= 3:
                state.failed = True
            return None
        if decision.outcome == "rejected":
            state.counters["rejected"] += 1
            return decision.retry_after
        if decision.outcome == "shed":
            state.counters["shed"] += 1
            return decision.retry_after
        state.cursor += 1
        state.counters["admitted"] += 1
        telemetry = decision.telemetry
        assert telemetry is not None
        state.counters["attempts"] += telemetry.attempts
        if telemetry.rolled_back:
            state.counters["rolled_back"] += 1
        if telemetry.degraded or self.svc.degraded:
            state.counters["degraded_batches"] += 1
        start = max(t, self._server_free)
        completion = start + telemetry.t_p
        self._server_free = completion
        heapq.heappush(self._backlog, completion)
        state.write_latencies.append(completion - t)
        self._record_reference()
        self._track_degraded(t)
        return None

    def _record_reference(self) -> None:
        if self.config.verify_reads:
            self.references.append(dict(self.svc.coreness_map()))

    # -- reads -----------------------------------------------------------

    def _serve_read(self, state: _TenantState, t: float) -> None:
        state.counters["read_events"] += 1
        decision = self.svc.admit_read(state.spec.name, now=t)
        if not decision.admitted:
            state.counters["read_rejected"] += 1
            return
        state.counters["read_admitted"] += 1
        wide = state.rng.random() >= 0.9
        vertex = state.offset + pick_read_vertex(state.spec, state.rng, state.span)
        if wide:
            result = self.reader.coreness_map()
            latency = 5.0 * self.config.read_latency
        else:
            result = self.reader.coreness(vertex)
            latency = self.config.read_latency
        state.read_latencies.append(latency)
        if result.staleness > state.max_staleness:
            state.max_staleness = result.staleness
        if result.degraded:
            state.counters["read_degraded"] += 1

    # -- chaos arming ----------------------------------------------------

    def _maybe_arm_fault(self) -> None:
        """Arm one fresh crash point, at most one unfired at a time."""
        if not self.config.fault_rate:
            return
        if self._armed_count > len(self.plan.fired):
            return  # previous injection has not fired yet
        if self._fault_rng.random() >= self.config.fault_rate:
            return
        live = [s for s in self._fault_sites if self.plan.counts[s] > 0]
        site = self._fault_rng.choice(live) if live else "service.apply"
        self.plan.arm(_faults.FaultPoint(site, self.plan.counts[site] + 1))
        self._armed_count += 1

    def _update_stall(self, t: float) -> None:
        window = self.config.stall
        if window is None:
            return
        if self._stall_point is None and window.start <= t < window.end:
            site = window.site or (
                "shard.apply" if self.sharded else "service.apply"
            )
            every = self.svc.engine.num_shards if site == "shard.apply" else 1
            self._stall_point = self.plan.stall(site, window.depth, every=every)
        elif (
            self._stall_point is not None
            and not self._stall_closed
            and t >= window.end
        ):
            self.plan.end_stall(self._stall_point)
            self._stall_closed = True

    # -- degraded-time bookkeeping --------------------------------------

    def _track_degraded(self, t: float) -> None:
        degraded = self.svc.degraded
        if degraded and not self._degraded_prev:
            self._degraded_since = t
            self._degraded_entered += 1
        elif not degraded and self._degraded_prev:
            if self._degraded_since is not None:
                self._degraded_time += t - self._degraded_since
                self._degraded_since = None
        self._degraded_prev = degraded

    def _close_degraded(self, t: float) -> None:
        if self._degraded_prev and self._degraded_since is not None:
            self._degraded_time += max(0.0, t - self._degraded_since)
            self._degraded_since = t

    # -- reporting -------------------------------------------------------

    def report(self, interrupted: bool | None = None) -> dict:
        """The SLO artifact (JSON-ready, no wall-clock — bit-replayable)."""
        if interrupted is None:
            interrupted = self._interrupted or not self._finished
        config = self.config
        probes = list(getattr(self.plan, "probes", []))
        consistent = sum(
            1 for p in probes if probe_consistent(p, self.references)
        )
        probe_staleness = max((p.staleness for p in probes), default=0)
        accounting_ok = True
        tenants: dict[str, dict] = {}
        for state in self.states:
            name = state.spec.name
            c = state.counters
            for kind, mapping in (
                ("write", {"admitted": c["admitted"], "rejected": c["rejected"],
                           "shed": c["shed"]}),
                ("read", {"admitted": c["read_admitted"],
                          "rejected": c["read_rejected"]}),
            ):
                recorded = self.controller.outcome_counts(name, kind)
                for outcome, count in mapping.items():
                    if recorded.get(outcome, 0) != count:
                        accounting_ok = False
            quota = self.controller.quota_for(name)
            tenants[name] = {
                "writes": {
                    "events": c["write_events"],
                    "admitted": c["admitted"],
                    "rejected": c["rejected"],
                    "shed": c["shed"],
                    "retries": c["retries"],
                    "abandoned": c["abandoned"],
                    "exhausted": c["exhausted"],
                    "errors": c["errors"],
                    "attempts": c["attempts"],
                    "rolled_back": c["rolled_back"],
                    "degraded_batches": c["degraded_batches"],
                    "p50_latency": _percentile(state.write_latencies, 0.50),
                    "p99_latency": _percentile(state.write_latencies, 0.99),
                    "max_latency": (
                        max(state.write_latencies)
                        if state.write_latencies
                        else None
                    ),
                },
                "reads": {
                    "events": c["read_events"],
                    "admitted": c["read_admitted"],
                    "rejected": c["read_rejected"],
                    "degraded": c["read_degraded"],
                    "p50_latency": _percentile(state.read_latencies, 0.50),
                    "p99_latency": _percentile(state.read_latencies, 0.99),
                    "max_staleness": state.max_staleness,
                },
                "quota": {"rate": quota.rate, "burst": quota.burst},
                "error": state.error,
            }
        total_errors = sum(s.counters["errors"] for s in self.states)
        ok = (
            not interrupted
            and accounting_ok
            and consistent == len(probes)
            and probe_staleness <= 1
            and total_errors == 0
        )
        artifact = {
            "format": 1,
            "kind": "soak",
            "label": config.label,
            "ok": ok,
            "interrupted": interrupted,
            "accounting_ok": accounting_ok,
            "config": {
                "algorithm": config.algorithm,
                "shards": config.shards,
                "seed": config.seed,
                "horizon": config.horizon,
                "threads": config.threads,
                "fault_rate": config.fault_rate,
                "verify_reads": config.verify_reads,
                "probe_every": config.probe_every,
                "read_latency": config.read_latency,
                "sample_every": config.sample_every,
                "stall": (
                    None if config.stall is None else config.stall.to_json_dict()
                ),
                "policy": self.controller.policy.to_json_dict(),
                "mix": config.mix.to_json_dict(),
            },
            "clock": {"end": self._now, "events": self._events},
            "totals": {
                "batches_applied": self.svc.batches_applied,
                "write_events": sum(
                    s.counters["write_events"] for s in self.states
                ),
                "read_events": sum(
                    s.counters["read_events"] for s in self.states
                ),
                "admitted": sum(s.counters["admitted"] for s in self.states),
                "rejected": sum(s.counters["rejected"] for s in self.states),
                "shed": sum(s.counters["shed"] for s in self.states),
                "errors": total_errors,
            },
            "consistency": {
                "reads_probed": len(probes),
                "reads_consistent": consistent,
                "max_staleness": probe_staleness,
                "references": len(self.references),
            },
            "faults": {
                "armed": self._armed_count,
                "fired": len(self.plan.fired),
                "stalled_hits": self.plan.stalled_hits,
                "site_counts": dict(sorted(self.plan.counts.items())),
            },
            "backpressure": self.controller.snapshot(self._now),
            "degraded": {
                "time": round(self._degraded_time, 9),
                "entered": self._degraded_entered,
                "active": self._degraded_prev,
            },
            "tenants": tenants,
        }
        if self.timeline is not None:
            artifact["timeline"] = self.timeline.to_json_dict()
        return artifact


def _percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]
