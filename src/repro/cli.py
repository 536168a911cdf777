"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``datasets``
    Print the synthetic analog dataset inventory (Table 3 analog).
``kcore``
    Run one dynamic k-core algorithm over a dataset or edge-list file
    with an Ins/Del/Mix protocol; print per-batch cost and accuracy.
``compare``
    Run every algorithm side by side on one dataset/protocol.
``scalability``
    Simulated self-relative speedup curves (Figure 10 analog).
``static``
    Static exact vs approximate k-core comparison on one dataset.
``service``
    Drive a :class:`repro.service.CoreService` session over a dataset:
    per-batch telemetry (work, depth, wall, simulated ``T_p``), a
    mid-stream snapshot, and coreness queries.
``trace``
    Run a small serving workload under the span tracer and export the
    span forest (Chrome ``trace_event`` or JSONL), printing the
    per-phase work/depth attribution table and checking that span
    costs reconcile exactly against the batch telemetry.
``metrics``
    Run the same workload under a metrics registry and dump every
    counter/gauge/histogram in Prometheus text or JSON form.
``soak``
    Chaos-armed multi-tenant soak: drive an admission-controlled
    service with a seeded traffic mix for N simulated seconds (crash
    faults + slow-shard stalls armed) and write a bit-reproducible
    per-tenant SLO artifact ``SOAK_<label>.json`` (with a delta-encoded
    ``timeline`` section sampled every ``--sample-every`` simulated
    seconds).  ``--flight-dir`` arms a flight recorder that dumps a
    ``FLIGHT_<label>_*.json`` context capture whenever a fault fires,
    backpressure engages, an audit fails, or the degradation ladder
    advances.  Ctrl-C flushes the partial artifact
    (``interrupted: true``) before exiting 130.
``slo``
    Evaluate declarative SLO rules (:mod:`repro.obs.slo`) against a
    SOAK/CHAOS artifact; ``--gate`` exits 2 naming the first breached
    rule and its window.
``dash``
    Deterministic terminal dashboard of any artifact with a
    ``timeline`` section: per-tenant / per-shard counter
    series with sparklines, gauge trajectories, and the tenant table.
``journal``
    Inspect a dumped write-ahead :class:`UpdateJournal`; a corrupt or
    truncated file is reported with its cut point (exit 2), and
    ``--recover`` salvages the intact record prefix instead.

All algorithm dispatch resolves through :mod:`repro.registry`.

Examples
--------
::

    python -m repro datasets --scale 0.3
    python -m repro kcore --dataset livejournal --algorithm pldsopt --protocol ins
    python -m repro kcore --edges my_graph.txt --batch-size 1000
    python -m repro compare --dataset dblp --protocol mix
    python -m repro scalability --dataset orkut
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from .bench.harness import run_protocol
from .graphs.generators import dataset_suite
from .graphs.io import read_edge_list
from .parallel.engine import WorkDepthTracker
from .parallel.scheduler import BrentScheduler
from .registry import (
    algorithm_keys,
    algorithm_spec,
    make_adapter,
    make_workload,
    workload_keys,
)
from .static_kcore.approx import approx_coreness_static
from .static_kcore.exact import ParallelExactKCore, exact_coreness, max_coreness

__all__ = ["main", "build_parser", "on_interrupt"]

#: ``(label, flush)`` callbacks run by :func:`main` when a command is cut
#: short by Ctrl-C, *before* returning the conventional exit 130.  Long
#: commands register a flusher so their partial artifact still lands on
#: disk (e.g. ``repro soak`` writes its SLO artifact with
#: ``interrupted: true``).  Cleared at the start of every :func:`main`.
_INTERRUPT_FLUSHERS: list[tuple[str, Callable[[], None]]] = []


def on_interrupt(label: str, flush: Callable[[], None]) -> None:
    """Register a partial-result flusher for the KeyboardInterrupt path."""
    _INTERRUPT_FLUSHERS.append((label, flush))


def _load_edges(args) -> tuple[str, list[tuple[int, int]]]:
    if args.edges:
        return args.edges, read_edge_list(args.edges)
    suite = {d.paper_name: d for d in dataset_suite(scale=args.scale, seed=42)}
    if args.dataset not in suite:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; choose from {sorted(suite)}"
        )
    spec = suite[args.dataset]
    return spec.name, spec.edges


def _n_hint(edges) -> int:
    return max((max(e) for e in edges), default=1) + 1


def cmd_datasets(args) -> int:
    print(f"{'dataset':16s} {'paper name':14s} {'vertices':>9s} {'edges':>9s} "
          f"{'max k':>6s}  regime")
    for d in dataset_suite(scale=args.scale, seed=42):
        k = max_coreness(exact_coreness(d.edges))
        print(
            f"{d.name:16s} {d.paper_name:14s} {d.num_vertices:9d} "
            f"{d.num_edges:9d} {k:6d}  {d.regime}"
        )
    return 0


def cmd_kcore(args) -> int:
    name, edges = _load_edges(args)
    batch = args.batch_size or max(1, len(edges) // 4)
    print(
        f"{name}: {len(edges)} edges | algorithm={args.algorithm} "
        f"protocol={args.protocol} batch={batch}"
    )
    res = run_protocol(
        lambda: make_adapter(
            args.algorithm, _n_hint(edges), delta=args.delta, lam=args.lam
        ),
        edges,
        args.protocol,
        batch,
        max_batches=args.max_batches,
    )
    print(f"  batches processed : {len(res.batches)}")
    print(f"  avg work / batch  : {res.avg_work:.0f}")
    print(f"  avg depth / batch : {res.avg_depth:.0f}")
    print(f"  avg wall / batch  : {res.avg_wall * 1e3:.2f} ms")
    if res.errors is not None and res.errors.vertices_measured:
        print(f"  error ratio       : avg {res.errors.average:.3f}, "
              f"max {res.errors.maximum:.3f}")
    print(f"  structure space   : {res.space_bytes} bytes")
    return 0


def cmd_compare(args) -> int:
    name, edges = _load_edges(args)
    batch = args.batch_size or max(1, len(edges) // 4)
    sched = BrentScheduler()
    keys = algorithm_keys() if args.include_static else algorithm_keys(dynamic=True)
    print(
        f"{name}: {len(edges)} edges | protocol={args.protocol} batch={batch} "
        f"| simulated time at {args.threads} threads (sequential at 1)"
    )
    print(f"{'algorithm':11s} {'sim time':>12s} {'work':>12s} {'depth':>10s} "
          f"{'avg err':>8s} {'max err':>8s}")
    for key in keys:
        res = run_protocol(
            lambda k=key: make_adapter(k, _n_hint(edges)),
            edges,
            args.protocol,
            batch,
            max_batches=args.max_batches,
        )
        p = args.threads if algorithm_spec(key).parallel else 1
        t = sched.time(res.total_cost, p) / max(1, len(res.batches))
        err = res.errors
        avg = f"{err.average:.2f}" if err and err.vertices_measured else "-"
        mx = f"{err.maximum:.2f}" if err and err.vertices_measured else "-"
        print(
            f"{key:11s} {t:12.0f} {res.total_cost.work:12d} "
            f"{res.total_cost.depth:10d} {avg:>8s} {mx:>8s}"
        )
    return 0


def cmd_scalability(args) -> int:
    name, edges = _load_edges(args)
    batch = args.batch_size or max(1, len(edges) // 3)
    sched = BrentScheduler(hyperthread_cores=30, hyperthread_yield=0.35)
    parallel = list(algorithm_keys(dynamic=True, parallel=True))
    costs = {}
    for key in parallel:
        res = run_protocol(
            lambda k=key: make_adapter(k, _n_hint(edges)),
            edges,
            "ins",
            batch,
        )
        costs[key] = res.total_cost
    print(f"{name}: Ins, batch={batch} — self-relative speedup")
    print("threads  " + "  ".join(f"{k:>8s}" for k in parallel))
    for p in (1, 2, 4, 8, 15, 30, 60):
        row = "  ".join(f"{sched.speedup(costs[k], p):7.2f}x" for k in parallel)
        print(f"{p:7d}  {row}")
    return 0


def cmd_static(args) -> int:
    name, edges = _load_edges(args)
    sched = BrentScheduler()
    t_e = WorkDepthTracker()
    exact = ParallelExactKCore(t_e).run(edges)
    t_a = WorkDepthTracker()
    approx = approx_coreness_static(edges, eps=args.eps, tracker=t_a)
    print(f"{name}: {len(edges)} edges")
    print(f"{'':16s} {'rounds':>7s} {'work':>10s} {'depth':>8s} {'T60':>10s}")
    print(f"{'ExactKCore':16s} {exact.rounds:7d} {t_e.work:10d} "
          f"{t_e.depth:8d} {sched.time(t_e.cost, 60):10.0f}")
    print(f"{'ApproxKCore':16s} {approx.rounds:7d} {t_a.work:10d} "
          f"{t_a.depth:8d} {sched.time(t_a.cost, 60):10.0f}")
    ref = exact.coreness
    worst = 1.0
    for v, k in ref.items():
        if k == 0:
            continue
        est = approx.estimates[v]
        worst = max(worst, max(est / k, k / est))
    print(f"approx max error ratio: {worst:.3f}")
    return 0


def cmd_adversary(args) -> int:
    from .baselines.zhang import ZhangExactDynamic
    from .core.plds import PLDS

    # Generators resolve through the workload registry, the same table
    # soak traffic mixes reference declaratively (see `repro soak`).
    initial, batches = make_workload(args.workload, args.size, args.rounds)
    n_hint = max((max(e) for e in initial), default=1) + 2
    print(
        f"workload={args.workload} size={args.size} rounds={args.rounds} "
        f"({len(initial)} initial edges, {len(batches)} batches)"
    )
    plds = PLDS(n_hint=n_hint)
    plds.insert_edges(initial)
    base = plds.tracker.work
    for b in batches:
        plds.update(b)
    violations = plds.check_invariants()
    print(f"  PLDS  work/batch : {(plds.tracker.work - base) / len(batches):.0f}"
          f"   invariants {'OK' if not violations else 'VIOLATED'}")

    zhang = ZhangExactDynamic()
    zhang.initialize(initial)
    base = zhang.tracker.work
    for b in batches:
        zhang.update(b)
    print(f"  Zhang work/batch : {(zhang.tracker.work - base) / len(batches):.0f}"
          f"   (exact maintenance)")
    return 0


def cmd_window(args) -> int:
    from .bench.metrics import error_stats
    from .core.plds import PLDS
    from .graphs.streams import sliding_window_batches

    name, edges = _load_edges(args)
    window = args.window or max(10, len(edges) // 3)
    batch = args.batch_size or max(1, window // 5)
    print(f"{name}: sliding window={window}, batch={batch}")
    plds = PLDS(n_hint=_n_hint(edges), group_shrink=50)
    live: set = set()
    batches = sliding_window_batches(edges, window, batch)
    for i, b in enumerate(batches):
        before = plds.tracker.work
        plds.update(b)
        live |= set(b.insertions)
        live -= set(b.deletions)
        if i % max(1, len(batches) // 8) == 0 or i == len(batches) - 1:
            stats = error_stats(
                plds.coreness_estimates(), exact_coreness(sorted(live))
            )
            print(
                f"  batch {i + 1:4d}: live={len(live):6d} "
                f"work={plds.tracker.work - before:7d} "
                f"err avg={stats.average:.2f} max={stats.maximum:.2f}"
            )
    return 0


def cmd_service(args) -> int:
    from .graphs.streams import insertion_batches
    from .service import CoreService

    name, edges = _load_edges(args)
    batch = args.batch_size or max(1, len(edges) // 4)
    svc = CoreService(args.algorithm, n_hint=_n_hint(edges), threads=args.threads)
    reader = svc.reader()
    print(
        f"{name}: serving {len(edges)} edges | algorithm={args.algorithm} "
        f"batch={batch} threads={args.threads}"
    )
    print(f"{'batch':>5s} {'+ins':>6s} {'-del':>6s} {'work':>10s} {'depth':>8s} "
          f"{'wall ms':>9s} {'T_p':>10s} {'epoch':>6s}")
    batches = insertion_batches(edges, batch, seed=0)
    if args.max_batches is not None:
        batches = batches[: args.max_batches]

    def served(query, result):
        # Each read reports which committed epoch answered it and how many
        # batches it trails the write head; --stale-ok turns the bound into
        # a hard failure (ValueError -> exit 2 with file:line in main()).
        if args.stale_ok is not None and result.staleness > args.stale_ok:
            raise ValueError(
                f"{query} served at epoch {result.epoch} is "
                f"{result.staleness} batch(es) behind head; --stale-ok "
                f"allows {args.stale_ok}"
            )
        flag = " [degraded]" if result.degraded else ""
        print(f"  {query:<18s}: epoch {result.epoch} "
              f"staleness {result.staleness}{flag}")
        return result.value

    snap = None
    for i, b in enumerate(batches):
        t = svc.apply_batch(b)
        print(
            f"{t.batch_id:5d} {t.insertions:6d} {t.deletions:6d} {t.work:10d} "
            f"{t.depth:8d} {t.wall_seconds * 1e3:9.2f} {t.t_p:10.0f} "
            f"{t.read_epoch:6d}"
        )
        if i == len(batches) // 2:
            snap = svc.snapshot()
    cmap = served("coreness_map", reader.coreness_map())
    top = max(cmap.items(), key=lambda kv: kv[1], default=(0, 0.0))
    served("coreness", reader.coreness(top[0]))
    print(f"  busiest vertex    : {top[0]} (estimate {top[1]:.2f})")
    if snap is not None:
        print(
            f"  snapshot #{snap.snapshot_id} after batch {snap.batches_applied}: "
            f"{len(snap.edges)} edges, vertex {top[0]} was {snap.coreness(top[0]):.2f}"
        )
    print(f"  structure space   : {svc.space_bytes()} bytes")
    return 0


def _check_output_path(
    flag: str, path: str | None, is_dir: bool = False
) -> None:
    """Fail fast (exit 2) when ``path`` cannot be written.

    ``path`` is a directory (``is_dir``) or a file whose parent directory
    must exist and be writable.  Commands call this before any work, so a
    typo in an output flag never costs a full run.
    """
    if path is None:
        return
    target = path if is_dir else os.path.dirname(os.path.abspath(path))
    what = flag if is_dir else f"{flag} directory"
    if not os.path.isdir(target):
        raise FileNotFoundError(f"{what} not found: {target}")
    if not os.access(target, os.W_OK):
        raise PermissionError(f"{what} not writable: {target}")


def cmd_chaos(args) -> int:
    import json

    from .bench.chaos import run_chaos

    _check_output_path("--json", args.json)
    report = run_chaos(
        algorithm=args.algorithm,
        vertices=args.vertices,
        batch_size=args.batch_size or 50,
        trials=args.trials,
        seed=args.seed,
        delete_fraction=args.delete_fraction,
        trace=args.trace,
        stall_depth=args.stall_depth,
    )
    print(
        f"chaos: algorithm={report.algorithm} vertices={report.vertices} "
        f"batch={report.batch_size} seed={report.seed} "
        f"({report.updates} updates in {report.batches} batches)"
    )
    print("  fault-site census : "
          + " ".join(f"{s}={c}" for s, c in report.census.items()))
    reads = "" if not args.trace else f" {'reads':>9s} {'stale':>5s}"
    print(f"{'trial':>5s} {'site':18s} {'hit':>4s} {'fired':>5s} "
          f"{'rolled':>6s} {'parity':>6s}" + reads)
    for t in report.trials:
        flag = "" if t.ok else ("  " + (t.error or "PARITY MISMATCH"))
        reads = "" if not args.trace else (
            f" {t.reads_consistent:4d}/{t.reads_probed:<4d} "
            f"{t.max_read_staleness:5d}"
        )
        print(
            f"{t.seed:5d} {t.site:18s} {t.hit_number:4d} "
            f"{str(t.fired):>5s} {t.rolled_back_batches:6d} "
            f"{str(t.parity):>6s}" + reads + flag
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    ok = report.ok
    print(f"chaos recovery check: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _obs_workload(args):
    """The shared trace/metrics workload: mixed insert+delete power-law."""
    from .bench.chaos import chaos_workload

    return chaos_workload(
        args.vertices,
        args.batch_size or 50,
        args.seed,
        delete_fraction=args.delete_fraction,
    )


def cmd_trace(args) -> int:
    from .obs.export import write_chrome_trace, write_jsonl
    from .obs.tracing import Tracer, iter_spans, phase_totals, tracing
    from .service import CoreService

    _check_output_path("--out", args.output)
    batches = _obs_workload(args)
    svc = CoreService(args.algorithm, n_hint=args.vertices + 1)
    tracer = Tracer()
    with tracing(tracer):
        for b in batches:
            svc.apply_batch(b)
    roots = tracer.roots
    n_spans = sum(1 for _ in iter_spans(roots))
    print(
        f"trace: algorithm={args.algorithm} vertices={args.vertices} "
        f"batches={len(batches)} spans={n_spans}"
    )
    print(f"  {'phase':18s} {'count':>6s} {'work':>12s} {'depth':>10s} "
          f"{'wall ms':>9s}")
    totals = phase_totals(roots)
    for name in sorted(totals, key=lambda n: -totals[n]["work"]):
        t = totals[name]
        print(
            f"  {name:18s} {t['count']:6d} {t['work']:12d} {t['depth']:10d} "
            f"{t['wall_s'] * 1e3:9.2f}"
        )
    # Reconciliation: summed service.batch span deltas must equal the
    # summed batch telemetry with exact integer equality (fault-free run).
    span_work = sum(s.work for s in roots if s.name == "service.batch")
    span_depth = sum(s.depth for s in roots if s.name == "service.batch")
    tel_work = sum(t.work for t in svc.telemetry)
    tel_depth = sum(t.depth for t in svc.telemetry)
    ok = span_work == tel_work and span_depth == tel_depth
    print(
        f"  reconciliation    : spans ({span_work}, {span_depth}) vs "
        f"telemetry ({tel_work}, {tel_depth}) -> "
        f"{'OK' if ok else 'MISMATCH'}"
    )
    if args.format == "chrome":
        write_chrome_trace(args.output, roots)
    else:
        write_jsonl(args.output, roots)
    print(f"wrote {args.output} ({args.format})")
    return 0 if ok else 1


def cmd_metrics(args) -> int:
    from .obs.metrics import (
        MetricsRegistry,
        collecting,
        metrics_json,
        record_level_structure,
    )
    from .service import CoreService

    _check_output_path("--out", args.output)
    batches = _obs_workload(args)
    svc = CoreService(args.algorithm, n_hint=args.vertices + 1)
    registry = MetricsRegistry()
    with collecting(registry):
        for b in batches:
            svc.apply_batch(b)
    record_level_structure(registry, svc.engine)
    if args.format in ("prom", "prometheus"):
        text = registry.to_prometheus()
    else:
        text = metrics_json(registry) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({args.format})")
    else:
        sys.stdout.write(text)
    return 0


def _write_soak_artifact(path: str, report: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_soak(args) -> int:
    from .service.admission import AdmissionPolicy, TenantQuota
    from .traffic import SoakConfig, SoakRunner, StallWindow, default_mix

    _check_output_path("--output-dir", args.output_dir, is_dir=True)
    if (args.stall_from is None) != (args.stall_until is None):
        raise SystemExit("--stall-from and --stall-until go together")
    stall = None
    if args.stall_from is not None:
        stall = StallWindow(
            start=args.stall_from, end=args.stall_until, depth=args.stall_depth
        )
    quota = None
    if args.quota_rate is not None or args.quota_burst is not None:
        quota = TenantQuota(
            rate=args.quota_rate if args.quota_rate is not None else 2.0,
            burst=args.quota_burst if args.quota_burst is not None else 40.0,
        )
    # Backpressure triggers: sharded runs watch shard lag; a monolithic
    # run has no lag signal, so a stall there must trip on batch depth.
    policy_kwargs: dict = {"queue_limit": args.queue_limit}
    if stall is not None and args.shards is None:
        policy_kwargs["depth_threshold"] = stall.depth
    config = SoakConfig(
        mix=default_mix(args.tenants, rate=args.rate),
        horizon=args.horizon,
        seed=args.seed,
        algorithm=args.algorithm,
        shards=args.shards,
        threads=args.threads,
        fault_rate=args.fault_rate,
        stall=stall,
        policy=AdmissionPolicy(**policy_kwargs),
        default_quota=quota,
        verify_reads=not args.no_verify_reads,
        probe_every=args.probe_every,
        sample_every=args.sample_every,
        label=args.label,
    )
    out_path = os.path.join(args.output_dir, f"SOAK_{args.label}.json")
    runner = SoakRunner(config)
    # Ctrl-C mid-soak must still land the partial artifact on disk
    # (interrupted: true) before main() returns 130.
    on_interrupt(
        out_path, lambda: _write_soak_artifact(out_path, runner.report(True))
    )
    print(
        f"soak: {args.tenants} tenants, horizon={args.horizon:.0f}s "
        f"(simulated), algorithm={args.algorithm}"
        + (f" shards={args.shards}" if args.shards else "")
        + f", fault_rate={args.fault_rate}"
        + (f", stall [{stall.start:.0f}, {stall.end:.0f})" if stall else "")
    )
    if args.flight_dir is not None:
        from .obs.recorder import FlightRecorder, recording

        os.makedirs(args.flight_dir, exist_ok=True)
        recorder = FlightRecorder(label=args.label, out_dir=args.flight_dir)
        with recording(recorder):
            report = runner.run()
        if recorder.dump_paths:
            print(f"  flight dumps : {len(recorder.dump_paths)} "
                  f"(under {args.flight_dir})")
    else:
        report = runner.run()
    _write_soak_artifact(out_path, report)
    print(f"{'tenant':10s} {'writes':>7s} {'adm':>6s} {'rej':>5s} {'shed':>5s} "
          f"{'p50':>8s} {'p99':>8s} {'reads':>6s} {'stale':>5s}")
    for name, t in report["tenants"].items():
        w, r = t["writes"], t["reads"]
        p50 = f"{w['p50_latency']:.0f}" if w["p50_latency"] is not None else "-"
        p99 = f"{w['p99_latency']:.0f}" if w["p99_latency"] is not None else "-"
        print(
            f"{name:10s} {w['events']:7d} {w['admitted']:6d} "
            f"{w['rejected']:5d} {w['shed']:5d} {p50:>8s} {p99:>8s} "
            f"{r['events']:6d} {r['max_staleness']:5d}"
        )
    cons = report["consistency"]
    print(f"  consistency  : {cons['reads_consistent']}/{cons['reads_probed']} "
          f"probes consistent, max staleness {cons['max_staleness']}")
    print(f"  faults       : {report['faults']['fired']} fired, "
          f"{report['faults']['stalled_hits']} stalled hits")
    bp = report["backpressure"]
    print(f"  backpressure : engaged {bp['engaged_count']}x, "
          f"{bp['pressure_time']:.0f}s under pressure")
    print(f"  degraded     : {report['degraded']['time']:.0f}s "
          f"({report['degraded']['entered']} episodes)")
    print(f"wrote {out_path}")
    print(f"soak SLO check: {'OK' if report['ok'] else 'FAIL'}")
    return 0 if report["ok"] else 1


def _load_artifact(path: str) -> dict:
    import json

    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    if not isinstance(artifact, dict):
        raise ValueError(f"{path}: expected a JSON object artifact")
    return artifact


def cmd_slo(args) -> int:
    import dataclasses
    import json

    from .obs.slo import DEFAULT_RULES, evaluate_artifact, gate_report

    artifact = _load_artifact(args.artifact)
    overrides = {
        "read-staleness": args.max_staleness,
        "write-p99": args.p99_latency,
        "rejection-rate": args.rejection_rate,
        "degraded-fraction": args.degraded_fraction,
        "rollback-burn": args.rollback_burn,
    }
    rules = tuple(
        dataclasses.replace(r, threshold=overrides[r.name])
        if overrides.get(r.name) is not None
        else r
        for r in DEFAULT_RULES
    )
    report = evaluate_artifact(artifact, rules=rules)
    print(
        f"slo: {artifact.get('kind', 'artifact')} label={report.label} "
        f"rules={len(rules)}"
    )
    print(f"  {'rule':18s} {'kind':17s} {'observed':>9s} {'allowed':>9s} "
          f"{'':7s} window")
    for v in report.verdicts:
        observed = "-" if v.observed is None else f"{v.observed:.3f}"
        flag = "OK" if v.ok else "BREACH"
        print(
            f"  {v.rule:18s} {v.kind:17s} {observed:>9s} {v.allowed:9.3f} "
            f"{flag:7s} {v.window}"
            + (f"  ({v.detail})" if v.detail else "")
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.gate:
        # Raises ValueError on breach -> exit 2 with file:line in main().
        gate_report(report)
        print("slo gate: OK")
        return 0
    print(f"slo check: {'OK' if report.ok else 'FAIL'} "
          f"({len(report.breaches)} breach(es))")
    return 0 if report.ok else 1


_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _spark(values: list, width: int = 32) -> str:
    """A fixed-palette sparkline; deterministic, at most ``width`` glyphs."""
    if not values:
        return ""
    if len(values) > width:
        # Evenly spaced downsample (keep first and last).
        step = (len(values) - 1) / (width - 1)
        values = [values[round(i * step)] for i in range(width)]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_GLYPHS[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARK_GLYPHS[min(7, int((v - lo) / span * 8))] for v in values
    )


def cmd_dash(args) -> int:
    from .obs.timeline import counter_totals, gauge_track, split_series_key

    artifact = _load_artifact(args.artifact)
    timeline = artifact.get("timeline")
    if not isinstance(timeline, dict):
        raise ValueError(
            f"{args.artifact}: no 'timeline' section; rerun the producing "
            "command with sampling on (`repro soak` samples by default, "
            "`repro chaos` needs --trace)"
        )
    samples = timeline.get("samples", [])
    print(
        f"dash: {artifact.get('kind', 'artifact')} "
        f"label={artifact.get('label', '?')} samples={len(samples)} "
        f"dropped={timeline.get('dropped', 0)}"
    )
    # Counter series, bucketed by their distinguishing label so the
    # per-tenant / per-shard views line up.
    groups: dict[str, list[tuple[str, float]]] = {}
    for key, total in sorted(counter_totals(samples).items()):
        _, labels = split_series_key(key)
        table = dict(labels)
        if "tenant" in table:
            bucket = "per-tenant"
        elif "shard" in table:
            bucket = "per-shard"
        else:
            bucket = "service"
        groups.setdefault(bucket, []).append((key, total))
    for bucket in ("per-tenant", "per-shard", "service"):
        rows = groups.get(bucket, [])
        if not rows:
            continue
        print(f"  {bucket} counters{'':>{max(0, 46 - len(bucket))}s} "
              f"{'total':>10s}  trajectory")
        for key, total in rows[: args.limit]:
            deltas = [s.get("counters", {}).get(key, 0.0) for s in samples]
            print(f"    {key:52s} {total:10g}  {_spark(deltas)}")
        if len(rows) > args.limit:
            print(f"    ... {len(rows) - args.limit} more (raise --limit)")
    gauge_keys = sorted({k for s in samples for k in s.get("gauges", {})})
    if gauge_keys:
        print(f"  gauges{'':>49s} {'last':>10s}  trajectory")
        for key in gauge_keys[: args.limit]:
            track = gauge_track(samples, key)
            last = track[-1][1] if track else 0.0
            print(f"    {key:52s} {last:10g}  "
                  f"{_spark([v for _, v in track])}")
        if len(gauge_keys) > args.limit:
            print(f"    ... {len(gauge_keys) - args.limit} more "
                  f"(raise --limit)")
    tenants = artifact.get("tenants")
    if isinstance(tenants, dict) and tenants:
        print(f"  {'tenant':12s} {'writes':>7s} {'adm':>6s} {'rej':>5s} "
              f"{'shed':>5s} {'p99':>8s} {'reads':>6s} {'stale':>5s}")
        for name, t in tenants.items():
            w, r = t["writes"], t["reads"]
            p99 = (f"{w['p99_latency']:.0f}"
                   if w.get("p99_latency") is not None else "-")
            print(
                f"  {name:12s} {w['events']:7d} {w['admitted']:6d} "
                f"{w['rejected']:5d} {w['shed']:5d} {p99:>8s} "
                f"{r['events']:6d} {r['max_staleness']:5d}"
            )
    return 0


def cmd_journal(args) -> int:
    from .graphs.streams import UpdateJournal

    journal = UpdateJournal.load(args.path, recover=args.recover)
    statuses = {"committed": 0, "pending": 0, "aborted": 0}
    for record in journal.records:
        statuses[record.status] += 1
    print(f"{args.path}: {len(journal.records)} records "
          f"({statuses['committed']} committed, {statuses['pending']} pending, "
          f"{statuses['aborted']} aborted)")
    if journal.truncation is not None:
        t = journal.truncation
        print(
            f"  RECOVERED: corrupt tail cut at line {t.line} column "
            f"{t.column} ({t.detail}); kept {t.records} records "
            f"({t.committed} committed)"
        )
    updates = sum(
        len(r.insertions) + len(r.deletions)
        for r in journal.records
        if r.status == "committed"
    )
    print(f"  replayable history: {len(journal.committed_batches())} batches, "
          f"{updates} updates")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (e.g. ``--batch-size``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Batch-dynamic k-core decomposition (SPAA 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--dataset", default="dblp",
                       help="analog dataset paper-name (see `repro datasets`)")
        p.add_argument("--edges", default=None,
                       help="path to a whitespace edge-list file (overrides --dataset)")
        p.add_argument("--scale", type=float, default=0.3,
                       help="analog dataset scale factor")
        p.add_argument("--batch-size", type=_positive_int, default=None,
                       help="updates per batch (default: m/4)")
        p.add_argument("--max-batches", type=int, default=None)

    p = sub.add_parser("datasets", help="list the analog dataset suite")
    p.add_argument("--scale", type=float, default=0.3)
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("kcore", help="run one dynamic k-core algorithm")
    add_input(p)
    p.add_argument(
        "--algorithm", choices=algorithm_keys(dynamic=True), default="pldsopt"
    )
    p.add_argument("--protocol", choices=("ins", "del", "mix"), default="ins")
    p.add_argument("--delta", type=float, default=0.4)
    p.add_argument("--lam", type=float, default=3.0)
    p.set_defaults(fn=cmd_kcore)

    p = sub.add_parser("compare", help="run all algorithms side by side")
    add_input(p)
    p.add_argument("--protocol", choices=("ins", "del", "mix"), default="ins")
    p.add_argument("--threads", type=int, default=60)
    p.add_argument(
        "--include-static", action="store_true",
        help="also rerun the static algorithms per batch (Fig. 11 style)",
    )
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("scalability", help="simulated speedup curves")
    add_input(p)
    p.set_defaults(fn=cmd_scalability)

    p = sub.add_parser("static", help="static exact vs approximate k-core")
    add_input(p)
    p.add_argument("--eps", type=float, default=0.5)
    p.set_defaults(fn=cmd_static)

    p = sub.add_parser("adversary", help="run an adversarial toggle workload")
    p.add_argument(
        "--workload", choices=workload_keys(adversarial=True),
        default="cycle",
    )
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--rounds", type=int, default=5)
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("window", help="sliding-window temporal monitoring")
    add_input(p)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(fn=cmd_window)

    p = sub.add_parser(
        "service", help="CoreService demo: batched serving with telemetry"
    )
    add_input(p)
    p.add_argument("--algorithm", choices=algorithm_keys(), default="pldsopt")
    p.add_argument("--threads", type=int, default=60,
                   help="processor count for the simulated T_p telemetry")
    p.add_argument("--stale-ok", type=int, default=None, metavar="N",
                   help="fail (exit 2) if any read is served more than N "
                        "batches behind the write head")
    p.set_defaults(fn=cmd_service)

    p = sub.add_parser(
        "chaos",
        help="fault-injection recovery check (randomized crash plans)",
    )
    p.add_argument("--algorithm", choices=algorithm_keys(dynamic=True),
                   default="pldsopt")
    p.add_argument("--vertices", type=int, default=150,
                   help="power-law workload size (Barabási–Albert)")
    p.add_argument("--batch-size", type=_positive_int, default=None,
                   help="updates per batch (default: 50)")
    p.add_argument("--trials", type=int, default=8,
                   help="randomized fault plans to run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delete-fraction", type=float, default=0.5,
                   help="fraction of edges deleted after insertion")
    p.add_argument("--json", default=None,
                   help="also write the full report as JSON to this path")
    p.add_argument("--trace", action="store_true",
                   help="attach the baseline span forest and a metrics dump "
                        "to the JSON report")
    p.add_argument("--stall-depth", type=int, default=0,
                   help="also arm a slow-apply stall (this much extra depth "
                        "per service.apply) over the middle half of every "
                        "trial")
    p.set_defaults(fn=cmd_chaos)

    def add_obs_workload(p):
        p.add_argument("--algorithm", choices=algorithm_keys(dynamic=True),
                       default="pldsopt")
        p.add_argument("--vertices", type=int, default=200,
                       help="power-law workload size (Barabási–Albert)")
        p.add_argument("--batch-size", type=_positive_int, default=None,
                       help="updates per batch (default: 50)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--delete-fraction", type=float, default=0.5,
                       help="fraction of edges deleted after insertion")

    p = sub.add_parser(
        "trace",
        help="trace a serving workload and export the span forest",
    )
    add_obs_workload(p)
    p.add_argument("--out", "--output", dest="output",
                   default="repro.trace.json", metavar="PATH",
                   help="export path (default: repro.trace.json)")
    p.add_argument("--format", choices=("chrome", "jsonl"), default="chrome",
                   help="chrome: trace_event JSON for chrome://tracing / "
                        "Perfetto; jsonl: one span record per line")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="run a serving workload and dump the metrics registry",
    )
    add_obs_workload(p)
    p.add_argument("--format", choices=("prometheus", "prom", "json"),
                   default="prom",
                   help="prometheus (alias: prom): text exposition; "
                        "json: registry dump")
    p.add_argument("--out", "--output", dest="output", default=None,
                   metavar="PATH", help="write here instead of stdout")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "slo",
        help="evaluate SLO rules against a SOAK/CHAOS artifact "
             "(--gate: exit 2 on breach)",
    )
    p.add_argument("artifact", help="path to a SOAK_/CHAOS json artifact")
    p.add_argument("--gate", action="store_true",
                   help="exit 2 naming the first breached rule and window "
                        "instead of reporting exit 1")
    p.add_argument("--out", "--output", dest="out", default=None,
                   metavar="PATH", help="also write the SLO report as JSON")
    p.add_argument("--max-staleness", type=float, default=None, metavar="N",
                   help="override the read-staleness threshold (batches)")
    p.add_argument("--p99-latency", type=float, default=None, metavar="T",
                   help="override the write-p99 threshold (simulated units)")
    p.add_argument("--rejection-rate", type=float, default=None, metavar="F",
                   help="override the rejection-rate threshold in [0, 1]")
    p.add_argument("--degraded-fraction", type=float, default=None,
                   metavar="F",
                   help="override the degraded-fraction threshold in [0, 1]")
    p.add_argument("--rollback-burn", type=float, default=None, metavar="N",
                   help="override the rollback-burn per-window budget")
    p.set_defaults(fn=cmd_slo)

    p = sub.add_parser(
        "dash",
        help="terminal dashboard of an artifact's metric timeline",
    )
    p.add_argument("artifact",
                   help="path to an artifact with a 'timeline' section")
    p.add_argument("--limit", type=int, default=12,
                   help="rows per section (default: 12)")
    p.set_defaults(fn=cmd_dash)

    p = sub.add_parser(
        "soak",
        help="chaos-armed multi-tenant soak (writes SOAK_<label>.json)",
    )
    p.add_argument("--tenants", type=int, default=2,
                   help="tenant count (templates cycle: bursty writer, "
                        "read-heavy, diurnal, adversarial)")
    p.add_argument("--horizon", type=float, default=600.0,
                   help="simulated seconds of traffic to run")
    p.add_argument("--seed", type=int, default=0,
                   help="same seed => bit-identical SLO artifact")
    p.add_argument("--rate", type=float, default=0.05,
                   help="base per-tenant arrival rate (requests per "
                        "simulated second)")
    p.add_argument("--algorithm", choices=algorithm_keys(dynamic=True),
                   default="pldsopt")
    p.add_argument("--shards", type=int, default=None,
                   help="serve through the sharded coordinator with this "
                        "many shards (enables the shard-lag backpressure "
                        "signal)")
    p.add_argument("--threads", type=int, default=60,
                   help="processor count for the simulated T_p clock")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="probability per write of arming a fresh crash "
                        "faultpoint (one in flight at a time)")
    p.add_argument("--stall-from", type=float, default=None, metavar="T",
                   help="open a slow-shard stall window at this simulated "
                        "time (needs --stall-until)")
    p.add_argument("--stall-until", type=float, default=None, metavar="T",
                   help="close the stall window at this simulated time")
    p.add_argument("--stall-depth", type=int, default=4000,
                   help="extra critical-path depth charged per stalled hit")
    p.add_argument("--queue-limit", type=int, default=12,
                   help="shed writes when the simulated backlog reaches "
                        "this depth (tightens under backpressure)")
    p.add_argument("--quota-rate", type=float, default=None,
                   help="default per-tenant token refill rate "
                        "(tokens per simulated second)")
    p.add_argument("--quota-burst", type=float, default=None,
                   help="default per-tenant token bucket capacity")
    p.add_argument("--probe-every", type=int, default=7,
                   help="read-probe every Nth faultpoint traversal")
    p.add_argument("--no-verify-reads", action="store_true",
                   help="skip the mid-cascade read-consistency probes")
    p.add_argument("--sample-every", type=float, default=25.0, metavar="T",
                   help="timeline sampling grid in simulated seconds "
                        "(0 disables the artifact's timeline section)")
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="arm a flight recorder; context dumps land here as "
                        "FLIGHT_<label>_*.json when faults fire, "
                        "backpressure engages, or the service degrades")
    p.add_argument("--label", default="local",
                   help="output file is SOAK_<label>.json")
    p.add_argument("--output-dir", default=".",
                   help="directory for the SOAK json (default: cwd)")
    p.set_defaults(fn=cmd_soak)

    p = sub.add_parser(
        "journal",
        help="inspect a dumped write-ahead journal (exit 2 if corrupt)",
    )
    p.add_argument("path", help="path to a journal JSON written by dump()")
    p.add_argument("--recover", action="store_true",
                   help="salvage the intact record prefix of a corrupt "
                        "journal instead of failing")
    p.set_defaults(fn=cmd_journal)

    return parser


def _error_site(exc: BaseException) -> str:
    """``" (file.py:123)"`` for the deepest repro frame of ``exc``, or ``""``.

    Points the one-line CLI error at the raising site inside this package
    without printing a traceback; frames from the standard library (e.g.
    ``json``) are skipped so the location stays actionable.
    """
    site = ""
    tb = exc.__traceback__
    while tb is not None:
        filename = tb.tb_frame.f_code.co_filename
        parts = filename.replace("\\", "/").split("/")
        if "repro" in parts:
            site = f" ({parts[-1]}:{tb.tb_lineno})"
        tb = tb.tb_next
    return site


def main(argv: Sequence[str] | None = None) -> int:
    _INTERRUPT_FLUSHERS.clear()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Never swallow Ctrl-C into a generic error: conventional 128+SIGINT
        # for EVERY subcommand, flushing any registered partial artifacts
        # first (e.g. a soak's SLO report with interrupted: true).
        for label, flush in _INTERRUPT_FLUSHERS:
            try:
                flush()
                print(f"repro: flushed partial {label}", file=sys.stderr)
            except Exception as exc:  # the flusher must not mask exit 130
                print(f"repro: flush of {label} failed: {exc}", file=sys.stderr)
        print("repro: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:  # output piped into e.g. `head`
        return 0
    except (ValueError, KeyError) as exc:
        # Malformed input files, unknown registry keys, bad parameter
        # combinations: one actionable line, not a traceback.
        detail = exc.args[0] if exc.args else exc
        print(f"repro: error: {detail}{_error_site(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro: error: {exc}{_error_site(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
