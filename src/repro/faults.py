"""Deterministic fault injection for the serving stack.

A production serving layer is only trustworthy if every phase of a batch
can crash and the system still converges to the right answer.  This
module is the substrate that makes such crashes *reproducible*: named
**faultpoints** are threaded through the engine, the PLDS rebalancing
cascades, and the :class:`~repro.service.CoreService` apply path, and a
:class:`FaultPlan` arms any of them to raise :class:`InjectedFault` on
an exact (Nth) traversal, or — via :class:`StallPoint` windows — to
*stall*: charge extra metered depth to the site's tracker instead of
crashing, which is how slow shards are injected for backpressure tests.
Tests, the property suite, and the ``repro chaos`` / ``repro soak``
CLIs all drive recovery through the same five sites:

==================  ====================================================
site                fires
==================  ====================================================
``plds.rise``       once per level iteration of RebalanceInsertions
                    (Algorithm 2's upward cascade)
``plds.desaturate``  once per level iteration of RebalanceDeletions
                    (Algorithm 3's downward cascade)
``engine.parfor``   once per simulated ``parfor`` / ``flat_parfor`` call
``service.apply``   once per :meth:`CoreService.apply_batch` attempt
``shard.apply``     once per per-shard structural apply step of the
                    sharded coordinator (:mod:`repro.shard`) — fires
                    *after* the shard mutated, so recovery really rolls
                    back and retries only that shard
==================  ====================================================

Zero overhead when disabled
---------------------------
No plan installed means :data:`ACTIVE` is ``None`` and every
instrumented site reduces to one module-global load plus a branch —
*per phase*, never per vertex or per edge — so the hot paths the
``perf/`` benchmark times are unaffected.  The
:mod:`repro.parallel.engine` layer stays import-clean (it never imports
this module): :func:`install` pushes a hook into the engine instead.

Example
-------
>>> from repro.faults import FaultPlan, FaultPoint, InjectedFault, active
>>> from repro.core.plds import PLDS
>>> from repro.graphs.streams import Batch
>>> plds = PLDS(n_hint=16)
>>> try:
...     with active(FaultPlan([FaultPoint("plds.rise", 1)])):
...         plds.update(Batch(insertions=[(0, 1), (1, 2), (0, 2)]))
... except InjectedFault as exc:
...     print(exc)
injected fault at plds.rise (hit 1)
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .obs import metrics as _metrics
from .obs import recorder as _recorder
from .parallel import engine as _engine

__all__ = [
    "FAULT_SITES",
    "InjectedFault",
    "FaultPoint",
    "StallPoint",
    "FaultPlan",
    "ACTIVE",
    "install",
    "clear",
    "active",
    "recording_plan",
    "random_plan",
]

#: Every named faultpoint wired into the stack, in dependency order.
FAULT_SITES: tuple[str, ...] = (
    "engine.parfor",
    "plds.rise",
    "plds.desaturate",
    "service.apply",
    "shard.apply",
)


class InjectedFault(RuntimeError):
    """Raised by an armed faultpoint — a *transient*, retryable crash.

    Retry policies treat this (and only this, by default) as transient:
    the plan's hit counter has advanced past the armed hit, so a retried
    attempt passes the same site cleanly.
    """


@dataclass(frozen=True)
class FaultPoint:
    """Arm one site to crash on its ``hit_number``-th traversal (1-based)."""

    site: str
    hit_number: int

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; choose from {FAULT_SITES}"
            )
        if self.hit_number < 1:
            raise ValueError("hit_number is 1-based and must be >= 1")


@dataclass
class StallPoint:
    """Arm one site to *stall* (add metered depth) instead of crashing.

    Crashes exercise rollback; stalls exercise **backpressure**.  A stall
    is active for every traversal whose 1-based hit number falls in
    ``[first_hit, last_hit]`` (``last_hit=None`` leaves it open until
    :meth:`FaultPlan.end_stall` closes it).  Instrumented sites query
    :meth:`FaultPlan.delay_for` after :meth:`FaultPlan.hit` and charge
    the returned ``depth`` to their work-depth tracker — so a stalled
    shard shows up exactly where a genuinely slow shard would: in the
    metered span/telemetry depth and in the coordinator's shard-lag
    signal, which is what the admission controller watches.

    ``every`` strides the stall within its window: only traversals with
    ``(hit - first_hit) % every == 0`` are slowed.  ``shard.apply`` is
    traversed once per *active shard* per scatter, so ``every = #shards``
    stalls roughly one shard per batch — an asymmetric slow shard that
    makes the coordinator's lag signal spike, where stalling every
    traversal would slow all shards uniformly and produce no lag at all.
    """

    site: str
    depth: int
    first_hit: int = 1
    last_hit: int | None = None
    every: int = 1
    hits: int = 0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; choose from {FAULT_SITES}"
            )
        if self.depth < 1:
            raise ValueError("stall depth must be >= 1")
        if self.first_hit < 1:
            raise ValueError("first_hit is 1-based and must be >= 1")
        if self.last_hit is not None and self.last_hit < self.first_hit:
            raise ValueError("last_hit must be >= first_hit")
        if self.every < 1:
            raise ValueError("every must be >= 1")


class FaultPlan:
    """A set of armed :class:`FaultPoint`\\ s plus per-site hit counters.

    A plan with no points is a pure *recorder*: it counts how often each
    site fires over a workload (the census :func:`random_plan` uses to
    aim faults at traversals that actually happen) without ever raising.

    Counters persist across retries, which is what makes injected
    faults transient: a point armed at hit ``n`` fires exactly once —
    the retry traverses the site at hit ``n + 1`` and proceeds.
    """

    def __init__(
        self,
        points: Iterable[FaultPoint] = (),
        stalls: Iterable[StallPoint] = (),
    ) -> None:
        self.points: tuple[FaultPoint, ...] = tuple(points)
        self._armed = {(p.site, p.hit_number) for p in self.points}
        self.stalls: list[StallPoint] = list(stalls)
        self.counts: dict[str, int] = dict.fromkeys(FAULT_SITES, 0)
        self.fired: list[FaultPoint] = []

    def hit(self, site: str) -> None:
        """Record one traversal of ``site``; raise if a point is armed there."""
        count = self.counts[site] + 1
        self.counts[site] = count
        if (site, count) in self._armed:
            self.fired.append(FaultPoint(site, count))
            mreg = _metrics.ACTIVE
            if mreg is not None:
                mreg.inc("faults.fired", site=site)
            rec = _recorder.ACTIVE
            if rec is not None:
                rec.trip("fault", site=site, hit=count)
            raise InjectedFault(f"injected fault at {site} (hit {count})")

    def arm(self, point: FaultPoint) -> FaultPoint:
        """Add one more crash point to a live plan (soak-style arming).

        The soak harness arms faults *while the plan is installed*, aimed
        just past the site's current hit count, so a long-running run can
        keep injecting fresh transient crashes without reinstalling.
        """
        self.points = self.points + (point,)
        self._armed.add((point.site, point.hit_number))
        return point

    # -- stalls (slow-shard / slow-apply injection) --------------------

    def stall(
        self,
        site: str,
        depth: int,
        first_hit: int | None = None,
        last_hit: int | None = None,
        every: int = 1,
    ) -> StallPoint:
        """Arm a stall at ``site``; defaults to starting at the *next* hit."""
        if first_hit is None:
            first_hit = self.counts[site] + 1
        point = StallPoint(
            site, depth, first_hit=first_hit, last_hit=last_hit, every=every
        )
        self.stalls.append(point)
        return point

    def end_stall(self, point: StallPoint) -> None:
        """Close an open stall window at the site's current hit count."""
        if point.last_hit is None:
            point.last_hit = max(self.counts[point.site], point.first_hit)

    def delay_for(self, site: str) -> int:
        """Total stall depth to charge for the traversal just recorded.

        Call once per traversal, right after :meth:`hit`; the answer is
        based on the hit counter that :meth:`hit` advanced, so crashes
        and stalls armed at the same traversal stay consistent.
        """
        if not self.stalls:
            return 0
        count = self.counts[site]
        total = 0
        for point in self.stalls:
            if point.site != site or count < point.first_hit:
                continue
            if point.last_hit is not None and count > point.last_hit:
                continue
            if (count - point.first_hit) % point.every:
                continue
            point.hits += 1
            total += point.depth
        if total:
            mreg = _metrics.ACTIVE
            if mreg is not None:
                mreg.inc("faults.stalled", site=site)
            rec = _recorder.ACTIVE
            if rec is not None:
                rec.note("fault.stall", site=site, depth=total)
        return total

    @property
    def stalled_hits(self) -> int:
        """Traversals that were slowed by any armed stall window."""
        return sum(point.hits for point in self.stalls)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(points={list(self.points)!r}, counts={self.counts!r})"


#: The installed plan, consulted by every instrumented site; ``None``
#: (the default) compiles each site down to a load-and-branch no-op.
ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the active plan and hook the engine layer into it."""
    global ACTIVE
    ACTIVE = plan
    _engine.set_fault_hook(plan.hit)


def clear() -> None:
    """Deactivate fault injection; all sites become no-ops again."""
    global ACTIVE
    ACTIVE = None
    _engine.set_fault_hook(None)


@contextmanager
def active(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope ``plan`` to a ``with`` block, restoring the previous plan."""
    previous = ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        if previous is None:
            clear()
        else:
            install(previous)


def recording_plan() -> FaultPlan:
    """A plan that counts site traversals but never raises (a census)."""
    return FaultPlan()


def random_plan(
    seed: int,
    counts: Mapping[str, int],
    sites: Sequence[str] = FAULT_SITES,
) -> FaultPlan:
    """A seeded single-fault plan aimed at a traversal that will happen.

    ``counts`` is a census from a fault-free run of the same workload
    (:func:`recording_plan`); the plan arms one uniformly random site —
    among ``sites`` with a non-zero census — at a uniformly random hit
    within its observed range, so the fault is guaranteed to fire.
    """
    live = [s for s in sites if counts.get(s, 0) > 0]
    if not live:
        raise ValueError("census has no live sites; nothing to inject into")
    rng = random.Random(seed)
    site = rng.choice(live)
    return FaultPlan([FaultPoint(site, rng.randint(1, counts[site]))])
