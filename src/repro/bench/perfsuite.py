"""Perf-regression harness: ``repro bench``.

Times the canonical Ins/Del/Mix workloads (Section 6 protocols) on two
synthetic stream families — a power-law graph (the paper's social-network
regime) and a 2-D grid (the road-network regime) — for a configurable set
of algorithms, and records one JSON file per run at the repository root:

``BENCH_<label>.json``::

    {
      "format": 1,
      "label": "pr1",
      "scale": 1.0,
      "entries": [
        {"workload": "powerlaw-mix", "algo": "plds",
         "wall_s": 0.41, "work": 1234567, "depth": 890, "space": 65536},
        ...
      ]
    }

Successive files form the repository's perf trajectory; ``compare_bench``
flags wall-clock regressions beyond a configurable tolerance (work/depth
are deterministic under the metering substrate, so any growth there is
reported at the same tolerance but almost always means an intentional
algorithmic change).

Timing protocol
---------------
``wall_s`` is the end-to-end time to *construct the structure and apply
the whole update stream* (for Del/Mix that includes building the initial
graph), measured with a lean runner that skips the error-vs-exact-peeling
measurement of :func:`repro.bench.harness.run_protocol` — accuracy
checking is identical across implementations of the same algorithm and
would only dilute the signal a hot-path change produces.  ``work`` /
``depth`` are the metered totals over the same span and are deterministic;
``space`` is the structure's resident-byte estimate after the run.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import pstats
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, Sequence

from ..graphs.generators import barabasi_albert, grid_2d
from ..graphs.streams import deletion_batches, insertion_batches, mixed_batch
from ..obs.tracing import Tracer, phase_totals, tracing
from ..parallel.engine import Cost
from ..parallel.scheduler import BrentScheduler
from ..registry import algorithm_spec, make_adapter

__all__ = [
    "PerfEntry",
    "BenchReport",
    "Comparison",
    "ComparisonResult",
    "DEFAULT_ALGOS",
    "WORKLOADS",
    "run_suite",
    "write_bench",
    "load_bench",
    "compare_bench",
]

#: algorithms benched by default — the level structures this repo optimizes.
DEFAULT_ALGOS = ("plds", "pldsopt", "lds")

#: workload keys: ``<stream-family>-<protocol>``.
WORKLOADS = (
    "powerlaw-ins",
    "powerlaw-del",
    "powerlaw-mix",
    "grid-ins",
    "grid-del",
    "grid-mix",
)

_BASE_POWERLAW_N = 3000
_BASE_GRID_SIDE = 55
_STREAM_SEED = 7

#: thread count for the simulated ``t_p`` column (the paper's machine).
T_P_THREADS = 60


@dataclass(frozen=True)
class PerfEntry:
    """One (workload, algorithm) measurement.

    ``phases`` is the optional per-phase attribution table
    (:func:`repro.obs.tracing.phase_totals`) recorded when the suite runs
    with tracing on (``repro bench --trace``), so a regression can name
    the offending phase.  It defaults to ``None`` — baseline files
    written before the field existed load unchanged, and the regression
    gate never compares it.

    ``t_p`` is the simulated parallel running time at the benchmark
    thread count (:data:`T_P_THREADS`, sequential algorithms at 1) via
    Brent's bound over the metered (work, depth).  For the sharded
    coordinator the metered depth is the scatter-gather critical path —
    per cascade round, the max over shards plus the ghost-exchange
    combining depth — so ``t_p`` is directly comparable between the
    sharded and single-structure rows.  Like ``phases`` it is optional:
    pre-existing baseline files load unchanged and the gate skips it.
    """

    workload: str
    algo: str
    wall_s: float
    work: int
    depth: int
    space: int
    phases: dict | None = None
    t_p: float | None = None


#: the keys a bench-file entry may carry, and the ones it must.
_ENTRY_KEYS = frozenset(f.name for f in fields(PerfEntry))
_ENTRY_REQUIRED = tuple(f.name for f in fields(PerfEntry) if f.default is MISSING)


@dataclass
class BenchReport:
    """One benchmark run — what a ``BENCH_<label>.json`` file holds."""

    label: str
    scale: float
    entries: list[PerfEntry] = field(default_factory=list)
    format: int = 1

    def entry(self, workload: str, algo: str) -> PerfEntry | None:
        for e in self.entries:
            if e.workload == workload and e.algo == algo:
                return e
        return None

    def to_json_dict(self) -> dict:
        entries = []
        for e in self.entries:
            d = asdict(e)
            for opt in ("phases", "t_p"):
                if d[opt] is None:
                    # Unset optional fields keep the original on-disk schema.
                    del d[opt]
            entries.append(d)
        return {
            "format": self.format,
            "label": self.label,
            "scale": self.scale,
            "entries": entries,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BenchReport":
        """Parse a bench file's JSON; malformed input raises ``ValueError``
        naming the offending key (never a bare ``KeyError``/``TypeError``)."""
        if not isinstance(data, dict) or data.get("format") != 1:
            raise ValueError("unsupported bench file format")
        missing = [k for k in ("label", "scale", "entries") if k not in data]
        if missing:
            raise ValueError(f"bench file lacks key {missing[0]!r}")
        entries = []
        for i, e in enumerate(data["entries"]):
            if not isinstance(e, dict):
                raise ValueError(f"entry {i} is not an object")
            unknown = sorted(set(e) - _ENTRY_KEYS)
            if unknown:
                raise ValueError(f"entry {i} has unknown key {unknown[0]!r}")
            absent = [k for k in _ENTRY_REQUIRED if k not in e]
            if absent:
                raise ValueError(f"entry {i} lacks key {absent[0]!r}")
            entries.append(PerfEntry(**e))
        return cls(label=data["label"], scale=data["scale"], entries=entries)


def _edges_for(family: str, scale: float) -> list[tuple[int, int]]:
    if family == "powerlaw":
        n = max(32, int(_BASE_POWERLAW_N * scale))
        return barabasi_albert(n, 4, seed=_STREAM_SEED)
    if family == "grid":
        side = max(5, int(_BASE_GRID_SIDE * math.sqrt(scale)))
        return grid_2d(side, side)
    raise ValueError(f"unknown stream family {family!r}")


#: hotspot rows per profiled cell (``repro bench --profile``).
PROFILE_TOP_N = 25


def _top_hotspots(prof: cProfile.Profile, top_n: int = PROFILE_TOP_N) -> list[dict]:
    """Top-``top_n`` functions by cumulative time, as JSON-ready rows."""
    stats = pstats.Stats(prof)
    rows = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda kv: kv[1][3],
        reverse=True,
    )[:top_n]
    return [
        {
            "function": f"{fn[0]}:{fn[1]}({fn[2]})",
            "ncalls": ncalls,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        }
        for fn, (_primcalls, ncalls, tottime, cumtime, _callers) in rows
    ]


def _run_workload(
    workload: str,
    algo: str,
    scale: float,
    trace: bool = False,
    shards: int = 4,
    profile: bool = False,
) -> tuple[float, int, int, int, dict | None, list[dict] | None]:
    """Apply one workload end to end.

    Returns ``(wall_s, work, depth, space, phases, hotspots)``;
    ``phases`` is the span-tree phase attribution when ``trace`` is on,
    ``hotspots`` the cProfile top-:data:`PROFILE_TOP_N` cumulative table
    when ``profile`` is on (else ``None`` each).  Tracing and profiling
    both add bookkeeping inside the timed region, so their wall numbers
    should only be compared against baselines recorded the same way.
    ``shards`` parameterizes sharded keys.
    """
    family, protocol = workload.rsplit("-", 1)
    edges = _edges_for(family, scale)
    n_hint = max((max(e) for e in edges), default=1) + 1
    batch = max(1, len(edges) // 5)
    if protocol == "ins":
        batches = insertion_batches(edges, batch, seed=_STREAM_SEED)
        initial: list[tuple[int, int]] = []
    elif protocol == "del":
        batches = deletion_batches(edges, batch, seed=_STREAM_SEED)
        initial = list(edges)
    elif protocol == "mix":
        initial, mix = mixed_batch(edges, max(2, len(edges) // 2), seed=_STREAM_SEED)
        batches = [mix]
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    adapter = make_adapter(algo, n_hint, shards=shards)
    # Same GC discipline as ``timeit``: collect leftovers from the
    # previous cell, then keep the cyclic collector out of the timed
    # region so one cell's garbage cannot distort another's wall time.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    phases: dict | None = None
    hotspots: list[dict] | None = None
    prof = cProfile.Profile() if profile else None
    try:
        if prof is not None:
            prof.enable()
        if trace:
            tracer = Tracer()
            with tracing(tracer):
                t0 = time.perf_counter()
                if initial:
                    adapter.initialize(initial)
                for b in batches:
                    adapter.update(b)
                wall = time.perf_counter() - t0
            phases = phase_totals(tracer.roots)
        else:
            t0 = time.perf_counter()
            if initial:
                adapter.initialize(initial)
            for b in batches:
                adapter.update(b)
            wall = time.perf_counter() - t0
    finally:
        if prof is not None:
            prof.disable()
        if gc_was_enabled:
            gc.enable()
    if prof is not None:
        hotspots = _top_hotspots(prof)
    cost = adapter.cost
    return (
        wall,
        cost.work,
        cost.depth,
        adapter.space_bytes(),
        phases,
        hotspots,
    )


def run_suite(
    scale: float = 1.0,
    algos: Sequence[str] = DEFAULT_ALGOS,
    workloads: Sequence[str] = WORKLOADS,
    repeats: int = 1,
    progress: Callable[[str], None] | None = None,
    trace: bool = False,
    shards: int = 4,
    profile_sink: dict[str, list[dict]] | None = None,
) -> list[PerfEntry]:
    """Run every (workload, algo) pair; wall time is the best of ``repeats``.

    "Best of" (rather than mean) is the standard noise-rejection choice
    for regression gating: the minimum is the least-interfered-with run.
    Repeats are *interleaved* across a workload's algorithms (rep 1 of
    every algo, then rep 2, ...) rather than run back-to-back per cell:
    under drifting background load, back-to-back repeats keep one
    algorithm's whole sample inside one load window and best-of-N
    comparisons between algorithms become a lottery over cell ordering;
    interleaving spans every algorithm's samples over the same windows,
    so the floors stay comparable.  Work/depth/space are identical
    across repeats (the substrate is deterministic), so they are taken
    from the last run.  With ``trace``
    on, each entry additionally carries its per-phase attribution table.
    ``shards`` parameterizes sharded algorithm keys only.
    Passing a dict as ``profile_sink`` turns on cProfile per cell and
    fills the dict with ``"<workload>/<algo>"`` → top cumulative
    hotspots (profiling distorts wall time — don't gate profiled runs
    against unprofiled baselines).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for algo in algos:
        algorithm_spec(algo)  # fail fast, naming the valid registry keys
    sched = BrentScheduler()
    entries: list[PerfEntry] = []
    for workload in workloads:
        best: dict[str, float] = {a: math.inf for a in algos}
        cells: dict[str, tuple] = {}
        for _ in range(repeats):
            for algo in algos:
                wall, work, depth, space, phases, hotspots = _run_workload(
                    workload,
                    algo,
                    scale,
                    trace=trace,
                    shards=shards,
                    profile=profile_sink is not None,
                )
                best[algo] = min(best[algo], wall)
                cells[algo] = (work, depth, space, phases, hotspots)
        for algo in algos:
            work, depth, space, phases, hotspots = cells[algo]
            if profile_sink is not None and hotspots is not None:
                profile_sink[f"{workload}/{algo}"] = hotspots
            p = T_P_THREADS if algorithm_spec(algo).parallel else 1
            t_p = sched.time(Cost(work=work, depth=depth), p)
            entries.append(
                PerfEntry(
                    workload=workload,
                    algo=algo,
                    wall_s=round(best[algo], 6),
                    work=work,
                    depth=depth,
                    space=space,
                    phases=phases,
                    t_p=round(t_p, 3),
                )
            )
            if progress is not None:
                progress(
                    f"{workload:13s} {algo:8s} wall={best[algo]:8.3f}s "
                    f"work={work:>12d} depth={depth:>8d}"
                )
    return entries


def write_bench(path: str, report: BenchReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_bench(path: str) -> BenchReport:
    """Read a ``BENCH_*.json`` file; malformed content (bad JSON, bad
    or missing keys) raises ``ValueError`` prefixed with ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return BenchReport.from_json_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


#: Absolute wall-clock slack for the regression gate: a wall "regression"
#: must exceed the baseline by this many seconds *in addition to* the
#: relative tolerance, so sub-millisecond cells at tiny ``--scale`` do
#: not fail the gate on timer noise.
WALL_SLACK_S = 0.01


@dataclass(frozen=True)
class Comparison:
    """Current-vs-baseline outcome for one (workload, algo, metric)."""

    workload: str
    algo: str
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        if self.baseline <= 0:
            return math.inf if self.current > 0 else 1.0
        return self.current / self.baseline


@dataclass
class ComparisonResult:
    """Outcome of :func:`compare_bench`."""

    regressions: list[Comparison] = field(default_factory=list)
    improvements: list[Comparison] = field(default_factory=list)
    missing: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_bench(
    current: BenchReport,
    baseline: BenchReport,
    tolerance: float = 0.25,
) -> ComparisonResult:
    """Compare ``current`` against ``baseline``.

    A metric *regresses* when ``current > baseline * (1 + tolerance)``;
    it *improves* when ``current < baseline / (1 + tolerance)``.  The
    tolerance guards wall-clock noise; it applies to work/depth/space
    too, though those are deterministic and normally move only when an
    algorithmic change is intentional.  Entries present in the baseline
    but absent from the current run are reported in ``missing`` (a
    silently dropped workload must not read as a pass).

    Wall time additionally gets an absolute slack of ``WALL_SLACK_S``:
    below a few milliseconds the relative tolerance is pure timer noise
    (a 0.4 ms cell "regressing" by 40% is meaningless), so a wall
    regression must also exceed the slack in absolute terms.  The
    deterministic metrics get no slack — any drift there is real.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    result = ComparisonResult()
    for base in baseline.entries:
        cur = current.entry(base.workload, base.algo)
        if cur is None:
            result.missing.append((base.workload, base.algo))
            continue
        for metric in ("wall_s", "work", "depth", "space"):
            b = float(getattr(base, metric))
            c = float(getattr(cur, metric))
            cmp = Comparison(base.workload, base.algo, metric, b, c)
            if c > b * (1.0 + tolerance):
                if metric != "wall_s" or c - b > WALL_SLACK_S:
                    result.regressions.append(cmp)
            elif c < b / (1.0 + tolerance):
                result.improvements.append(cmp)
    return result
