"""The repository benchmark: closed-loop workloads through the service, engine,
shard and read paths.

Usage::

    python perf/run.py --seed 7                       # every workload, one fresh process each
    python perf/run.py --workload engine-bulk --seed 7 --seconds 15
    python perf/run.py --trace --seed 7               # traced run: per-layer metrics

One client issues every call only after the previous one returned (closed
loop, no threads).  After 10 untimed warm-up batches the run measures, with
the cyclic garbage collector off, for ``--seconds`` of client wall time and
until the workload's minimum batch count ran at the machine's fast speed
(see :meth:`Samples.timed_steps`).  ``setup_s`` is the median over at least
3 fresh builds of the initial state (more while they take under 2 s
together); the last build serves the stream.  The metered totals, space and
coreness error are taken untimed once the minimum batch count has run, so
they repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when every call succeeded and every
correctness check passed; bad arguments exit 2 with a ``file:line`` message
before any workload runs.  See ``perf/README.md`` for every name.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

WARMUP_BATCHES = 10
#: set-up repeats until both counts are reached: a median over more builds
#: keeps the short set-ups from reading a single scheduler hiccup.
SETUP_MIN_BUILDS = 3
SETUP_MIN_SECONDS = 2.0
#: the machine-speed probe: stores into a small, preallocated dict, so the
#: reading depends on the processor's speed and not on the program's heap.
PROBE_KEYS = tuple(range(256)) * 4
#: seconds the probe takes when the machine runs at its fast speed (best of
#: three, measured on the 2-core host the bounds were set on).
REFERENCE_PROBE_S = 26e-6
#: a step ran fast when the probes around it read within this factor of
#: the reference.
FAST_FACTOR = 1.2
#: a run stops waiting for fast steps once its client time reaches this
#: multiple of ``--seconds``.
MAX_STRETCH = 2
#: steps between two checks of whether a run may stop.
CHECK_STEPS = 10
#: processor count of the simulated parallel time (the paper's machine).
T_P_THREADS = 60


def fail(message: str) -> NoReturn:
    """Exit 2 naming the file and line of the check that rejected the input."""
    caller = sys._getframe(1)
    where = f"{os.path.relpath(caller.f_code.co_filename)}:{caller.f_lineno}"
    print(f"{where}: error: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values: list[float], p: int) -> float:
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(min_samples: int) -> int:
    """Highest of p99/p95/p90/p75 leaving at least 10 of ``min_samples`` beyond it."""
    for p in (99, 95, 90, 75):
        if min_samples * (100 - p) >= 1000:
            return p
    return 50


def probe(clock: Callable[[], float]) -> float:
    """Best of three timings of a fixed pure-Python task: the machine's
    current speed, read independently of the program under test."""
    table = dict.fromkeys(PROBE_KEYS, 0)
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        for k in PROBE_KEYS:
            table[k] = k
        best = min(best, clock() - t0)
    return best


class Samples:
    """Everything one stretch of the closed loop measured, per step."""

    def __init__(self) -> None:
        self.write_s: list[float] = []
        self.point_s: list[list[float]] = []
        self.heavy_s: list[list[float]] = []
        self.step_s: list[float] = []
        self.probe_s: list[float] = []
        self.applied: list[int] = []
        self.client_s = 0.0
        self.moved = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def batches(self) -> int:
        return len(self.write_s)

    def flag(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def speeds(self) -> list[float]:
        """Per step, the slower of the probe readings before and after it."""
        p = self.probe_s
        return [max(a, b) for a, b in zip(p, p[1:])]

    def fast_steps(self) -> list[int]:
        """Steps both probes around which read within ``FAST_FACTOR`` of the
        reference."""
        return [i for i, s in enumerate(self.speeds()) if s <= FAST_FACTOR * REFERENCE_PROBE_S]

    def timed_steps(self, min_batches: int) -> tuple[list[int], list[float]]:
        """The steps the latency metrics use, with the factor each one's
        times are scaled by.

        The shared host switches, every few seconds, between a fast state
        and one about 1.6x slower.  With at least ``min_batches`` fast steps
        the metrics use those steps' wall times as measured; otherwise every
        step counts, its times scaled to the reference speed by
        ``REFERENCE_PROBE_S / speed``.  The choice rests on the probe alone,
        so a program change that slows some batches cannot hide them.
        """
        fast = self.fast_steps()
        if len(fast) >= min_batches:
            return fast, [1.0] * len(fast)
        return list(range(self.batches)), [REFERENCE_PROBE_S / s for s in self.speeds()]


def enough(out: Samples, seconds: float, min_batches: int) -> bool:
    """Whether a run may stop: once the client time reached ``seconds`` and
    ``min_batches`` steps ran fast, or the client time reached
    ``MAX_STRETCH`` times ``seconds`` with ``min_batches`` steps of any
    speed."""
    if out.client_s < seconds or out.batches < min_batches or out.batches % CHECK_STEPS:
        return False
    return out.client_s >= MAX_STRETCH * seconds or len(out.fast_steps()) >= min_batches


def drive(
    wl: Any,
    out: Samples,
    seconds: float,
    min_batches: int,
    checkpoint: Callable[[], None] | None = None,
) -> None:
    """The closed loop: generate, write, read; repeat until :func:`enough`.
    Only the calls into the program are timed; the speed probes between
    steps and ``checkpoint``, run once right after batch ``min_batches``,
    stay off the client clock."""
    clock = time.perf_counter
    out.probe_s.append(probe(clock))
    while not enough(out, seconds, min_batches):
        t0 = clock()
        payload, keys, heavy = wl.next_ops()
        t1 = clock()
        applied, problems = wl.write(payload)
        out.write_s.append(clock() - t1)
        out.flag(problems)
        points = []
        for v in keys:
            dt, problems = wl.point_timed(v, clock)
            points.append(dt)
            out.flag(problems)
        queries = []
        for query in heavy:
            dt, problems = wl.heavy_timed(query, clock)
            queries.append(dt)
            out.flag(problems)
        step = clock() - t0
        out.step_s.append(step)
        out.client_s += step
        out.point_s.append(points)
        out.heavy_s.append(queries)
        out.applied.append(applied)
        out.attempted += 1 + len(keys) + len(heavy)
        out.moved += len(wl.engine.last_moved or ())
        out.probe_s.append(probe(clock))
        if checkpoint is not None and out.batches == min_batches:
            checkpoint()


def mean_step_s(samples: Samples, min_batches: int) -> float:
    """Mean client wall time of a step, over :meth:`Samples.timed_steps`."""
    steps, scale = samples.timed_steps(min_batches)
    return sum(samples.step_s[i] * f for i, f in zip(steps, scale)) / len(steps)


def setup(wl: Any) -> float:
    """Median time of fresh builds; the last build is kept.  The builds with
    fast probe readings on both sides count as measured; when none ran
    fast, every build counts, scaled to the reference speed."""
    times: list[float] = []
    speeds: list[float] = []
    clock = time.perf_counter
    while len(times) < SETUP_MIN_BUILDS or sum(times) < SETUP_MIN_SECONDS:
        gc.collect()
        gc.disable()
        before = probe(clock)
        t0 = clock()
        wl.build()
        times.append(clock() - t0)
        speeds.append(max(before, probe(clock)))
        gc.enable()
    fast = [t for t, s in zip(times, speeds) if s <= FAST_FACTOR * REFERENCE_PROBE_S]
    return statistics.median(fast or [t * REFERENCE_PROBE_S / s for t, s in zip(times, speeds)])


def accuracy(wl: Any) -> tuple[Any, float, dict[int, int]]:
    """Error stats, the 99.9th-percentile error ratio and the exact cores of
    the stream's live graph."""
    from repro.bench.metrics import error_percentiles, error_stats
    from repro.static_kcore.exact import exact_coreness

    exact = exact_coreness(wl.live_edges())
    estimates = wl.estimates()
    p999 = error_percentiles(estimates, exact, (99.9,))[99.9]
    return error_stats(estimates, exact), p999, exact


def proven_factor(engine: Any) -> float | None:
    """The (2+ε) error bound the engine proves, or ``None``: only the plain
    PLDS configuration (group_shrink 1) carries the proof, which is what
    every kernel of ``plds-sharded`` runs; ``pldsopt`` trades it for speed."""
    kernels = getattr(getattr(engine, "engine", None), "kernels", None)
    structure = kernels[0] if kernels else engine
    if getattr(structure, "group_shrink", None) != 1:
        return None
    return structure.approximation_factor()


def bound_violations(wl: Any, stats: Any) -> list[str]:
    factor = proven_factor(wl.engine)
    if factor is not None and stats.maximum > factor:
        return [f"coreness error {stats.maximum} exceeds the proven bound {factor}"]
    return []


def trace_layers(wl: Any, samples: Samples, seconds: float, spans_path: Path) -> dict[str, float]:
    """The per-layer metrics: half the run untraced, then half traced.

    The ratio of the two halves' per-step client wall times, at one machine
    speed, is the cost of observing.  The span tree is dumped to
    ``spans_path`` as JSONL.
    """
    from repro.obs.export import write_jsonl
    from repro.obs.tracing import tracing
    from repro.parallel.engine import Cost
    from repro.parallel.scheduler import BrentScheduler
    from layers import LAYERS, Wrappers, attribute

    plain = Samples()
    drive(wl, plain, seconds / 2, 1)
    tracker = wl.engine.tracker
    before = tracker.cost
    with tracing() as tracer:
        wrappers = Wrappers(tracer)
        try:
            wl.instrument(wrappers.wrap)
            wrappers.wrap(wl, "next_ops", "bench.client.gen", None)
            drive(wl, samples, seconds / 2, 1)
        finally:
            wrappers.remove()
    after = tracker.cost
    samples.attempted += plain.attempted
    samples.failed += plain.failed
    samples.problems += plain.problems
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(str(spans_path), tracer.roots)

    att = attribute(tracer.roots)
    wall = samples.client_s
    batches = samples.batches
    points = [x for step in samples.point_s for x in step]
    queries = [x for step in samples.heavy_s for x in step]
    applies = att["calls"].get("service.apply", 0)
    cost = Cost(after.work - before.work, after.depth - before.depth)
    stats_fn = getattr(tracker, "pool_stats", None)
    metrics = {f"{layer}_frac": att["self_s"].get(layer, 0.0) / wall for layer in LAYERS}
    metrics.update({
        "trace.unattributed_frac": 1.0 - att["root_s"] / wall,
        "core.update_ms": 1e3 * att["update_s"] / batches,
        "query.point_us": 1e6 * sum(points) / len(points),
        "query.heavy_ms": 1e3 * sum(queries) / len(queries),
        "client.gen_ms": 1e3 * att["wall_s"]["bench.client.gen"] / batches,
        "service.attempt_yield": (
            att["calls"].get("bench.service.apply_batch", 0) / applies if applies else 0.0
        ),
        "core.rise_rounds_per_batch": att["rounds"]["rise"] / batches,
        "core.desaturate_rounds_per_batch": att["rounds"]["desaturate"] / batches,
        "core.candidates_per_batch": att["candidates"] / batches,
        "core.moved_per_batch": samples.moved / batches,
        "core.move_yield": samples.moved / att["candidates"] if att["candidates"] else 0.0,
        "shard.ghost_applies_per_batch": att["calls"].get("shard.ghost_apply", 0) / batches,
        "shard.messages_per_batch": att["messages"] / batches,
        "parallel.t_p60_per_batch": BrentScheduler().time(cost, T_P_THREADS) / batches,
        "parallel.pool_dispatches": stats_fn()["dispatches"] if stats_fn else 0,
        "obs.overhead_frac": mean_step_s(samples, 1) / mean_step_s(plain, 1) - 1.0,
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float, out_dir: Path) -> dict:
    """Set up, warm up and measure one workload in this process, then run
    the correctness gate; returns the samples, the metrics and the info
    line."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, scale)
    setup_s = setup(wl)
    drive(wl, Samples(), 0.0, WARMUP_BATCHES)

    samples = Samples()
    metrics: dict[str, float] = {}
    info: dict[str, Any] = {"workload": name, "seed": seed, "scale": scale}
    gc.collect()
    gc.disable()
    try:
        if not trace:
            start = wl.engine.tracker.cost

            def checkpoint() -> None:
                cost = wl.engine.tracker.cost
                stats, p999, _ = accuracy(wl)
                samples.attempted += 1
                samples.flag(bound_violations(wl, stats))
                info["error_max"] = stats.maximum
                metrics.update(
                    coreness_error_p999=p999,
                    coreness_error_avg=stats.average,
                    work_per_update=(cost.work - start.work) / sum(samples.applied),
                    depth_per_batch=(cost.depth - start.depth) / samples.batches,
                    space_mb=wl.space_bytes() / 1e6,
                )

            drive(wl, samples, seconds, wl.min_batches, checkpoint)
        else:
            metrics.update(trace_layers(wl, samples, seconds, out_dir / f"{name}.spans.jsonl"))
            info["traced_batches"] = samples.batches
    except Exception:
        samples.attempted += 1
        samples.failed += 1
        samples.problems.append(traceback.format_exc())
    finally:
        gc.enable()

    if samples.failed == 0:
        stats, _, exact = accuracy(wl)
        samples.attempted += 2
        samples.flag(bound_violations(wl, stats))
        samples.flag(wl.final_violations(exact))

    if not trace and samples.failed == 0:
        steps, scale = samples.timed_steps(wl.min_batches)
        write = [samples.write_s[i] * f for i, f in zip(steps, scale)]
        points = [x * f for i, f in zip(steps, scale) for x in samples.point_s[i]]
        queries = [x * f for i, f in zip(steps, scale) for x in samples.heavy_s[i]]
        p_batch = tail_percentile(wl.min_batches)
        p_read = tail_percentile(wl.min_batches * wl.point_reads)
        fast = len(samples.fast_steps())
        info.update(batches=samples.batches, fast_batches=fast, scaled=fast < wl.min_batches,
                    probe_us=1e6 * statistics.median(samples.probe_s),
                    batch_tail=f"p{p_batch}", read_tail=f"p{p_read}",
                    point_reads=len(points), heavy_queries=len(queries))
        metrics.update(
            setup_s=setup_s,
            update_throughput_ups=sum(samples.applied[i] for i in steps) / sum(write),
            batch_p50_ms=1e3 * percentile(write, 50),
            batch_tail_ms=1e3 * percentile(write, p_batch),
            read_p50_us=1e6 * percentile(points, 50),
            read_tail_us=1e6 * percentile(points, p_read),
            query_p50_ms=1e3 * percentile(queries, 50),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    info["client_s"] = samples.client_s
    return {"samples": samples, "metrics": metrics, "info": info}


def load_spec() -> dict:
    try:
        with open(SPEC_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {SPEC_PATH}: {exc}")


def report(result: dict, spec: dict, trace: bool) -> int:
    samples: Samples = result["samples"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and not samples.failed:
        samples.flag([f"metrics not measured: {', '.join(missing)}"])
    print(" ".join(f"{k}={v}" for k, v in result["info"].items()))
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:34s} {value:>16.6f} {m['unit']}")
    for problem in samples.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = samples.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, samples.attempted),
                      "failed": samples.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="timed client seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0, help="graph and batch size factor")
    parser.add_argument("--out", help="directory for span dumps (default: perf/out, created)")
    parser.add_argument("--src", default=str(ROOT / "src"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    from_spec = set(known)
    names = args.workload or known
    for name in names:
        if name not in from_spec:
            fail(f"unknown workload {name!r}; choose from {', '.join(known)}")
    if args.out is None:
        out_dir = HERE / "out"
    else:
        out_dir = Path(args.out)
        if not out_dir.is_dir():
            fail(f"--out {args.out}: no such directory")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds <= 0 or args.scale <= 0:
        fail("--seconds and --scale must be positive")
    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {src}")

    if len(names) > 1:
        return run_all(names, args, seconds, src)

    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    if set(WORKLOADS) != from_spec:
        fail(f"BENCHMARK.json workloads {sorted(from_spec)} differ from perf/workloads.py {sorted(WORKLOADS)}")
    result = run_workload(names[0], args.seed, seconds, bool(args.trace), args.scale, out_dir)
    return report(result, spec, bool(args.trace))


def run_all(names: list[str], args: argparse.Namespace, seconds: float, src: Path) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--scale", repr(args.scale), "--src", str(src)]
        if args.out is not None:
            cmd += ["--out", args.out]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = status or proc.returncode
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
