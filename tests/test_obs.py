"""Tests for the observability subsystem: tracing, metrics, exporters.

Covers the reconciliation invariant (span deltas equal metered totals
with exact integer equality), the zero-overhead-when-off contract, the
Prometheus / Chrome-trace export formats, the CLI / harness
integration points (``repro trace``, ``repro metrics``, ``repro chaos
--trace``), and the structure-introspection surface those commands
report on (PLDS level/group histograms, vertex rebuilds, sliding
windows, error percentiles).

Timeline / flight-recorder / SLO-gate tests live in ``test_slo.py``
(marker ``slo``).
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.bench.chaos import chaos_workload, run_chaos
from repro.bench.metrics import error_percentiles, error_stats
from repro.core.plds import PLDS
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.graphs.streams import Batch, sliding_window_batches
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.export import (
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    MetricsRegistry,
    collecting,
    parse_prometheus,
    record_level_structure,
)
from repro.obs.tracing import (
    Tracer,
    iter_spans,
    phase_totals,
    self_cost,
    tracing,
)
from repro.service import CoreService
from repro.static_kcore.exact import exact_coreness

from .conftest import assert_no_violations, build_plds

pytestmark = pytest.mark.obs


def serve_workload(vertices=60, batch_size=40, algorithm="pldsopt"):
    """A small mixed insert+delete serving run (rises and desaturations)."""
    svc = CoreService(algorithm, n_hint=vertices + 1)
    batches = chaos_workload(vertices, batch_size, seed=3)
    return svc, batches


class TestTracerCore:
    def test_inactive_by_default(self):
        assert obs_tracing.ACTIVE is None
        assert obs_metrics.ACTIVE is None

    def test_begin_end_nesting(self, tracker):
        t = Tracer()
        outer = t.begin("outer", tracker)
        tracker.add(work=5, depth=2)
        inner = t.begin("inner", tracker, level=3)
        tracker.add(work=7, depth=1)
        t.end(inner)
        t.end(outer)
        assert t.roots == [outer]
        assert outer.children == [inner]
        assert (outer.work, outer.depth) == (12, 3)
        assert (inner.work, inner.depth) == (7, 1)
        assert inner.attrs == {"level": 3}
        assert inner.parent_id == outer.span_id

    def test_reconciliation_exact(self, tracker):
        t = Tracer()
        root = t.begin("root", tracker)
        tracker.add(work=3, depth=1)
        for i in range(3):
            child = t.begin("child", tracker)
            tracker.add(work=10 + i, depth=2)
            t.end(child)
        tracker.add(work=4, depth=1)
        t.end(root)
        assert root.work == sum(c.work for c in root.children) + 7
        assert self_cost(root) == (7, 2)

    def test_end_unwinds_dangling_children(self, tracker):
        t = Tracer()
        outer = t.begin("outer", tracker)
        t.begin("dangling", tracker)
        t.begin("deeper", tracker)
        t.end(outer, error="InjectedFault")
        assert not t._stack
        assert t.roots == [outer]
        (dangling,) = outer.children
        assert dangling.name == "dangling"
        assert dangling.error == "InjectedFault"
        assert dangling.children[0].name == "deeper"

    def test_end_without_open_span_raises(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            t.end()

    def test_end_foreign_span_raises(self, tracker):
        t = Tracer()
        closed = t.begin("a", tracker)
        t.end(closed)
        with pytest.raises(RuntimeError):
            t.end(closed)

    def test_span_context_manager_records_error(self, tracker):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom", tracker):
                raise ValueError("x")
        assert t.roots[0].error == "ValueError"

    def test_finish_closes_everything(self, tracker):
        t = Tracer()
        t.begin("a", tracker)
        t.begin("b", tracker)
        roots = t.finish()
        assert len(roots) == 1 and not t._stack

    def test_tracing_scope_installs_and_restores(self):
        assert obs_tracing.ACTIVE is None
        with tracing() as t:
            assert obs_tracing.ACTIVE is t
            with tracing() as t2:
                assert obs_tracing.ACTIVE is t2
            assert obs_tracing.ACTIVE is t
        assert obs_tracing.ACTIVE is None

    def test_span_without_tracker_charges_zero(self):
        t = Tracer()
        with t.span("wall-only"):
            pass
        assert (t.roots[0].work, t.roots[0].depth) == (0, 0)


class TestSpanAnalysis:
    def _forest(self, tracker):
        t = Tracer()
        with t.span("batch", tracker):
            tracker.add(work=2, depth=1)
            with t.span("rise", tracker):
                tracker.add(work=5, depth=2)
            with t.span("rise", tracker):
                tracker.add(work=3, depth=1)
        return t.roots

    def test_iter_spans_preorder(self, tracker):
        roots = self._forest(tracker)
        assert [s.name for s in iter_spans(roots)] == ["batch", "rise", "rise"]

    def test_phase_totals_inclusive(self, tracker):
        totals = phase_totals(self._forest(tracker))
        assert totals["batch"]["work"] == 10
        assert totals["rise"] == {
            "count": 2,
            "work": 8,
            "depth": 3,
            "wall_s": totals["rise"]["wall_s"],
        }

    def test_to_dict_roundtrips_through_json(self, tracker):
        (root,) = self._forest(tracker)
        data = json.loads(json.dumps(root.to_dict()))
        assert data["name"] == "batch"
        assert len(data["children"]) == 2
        assert data["work"] == 10


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("service.batches")
        reg.inc("service.batches", 2)
        reg.gauge("plds.num_levels", 14)
        reg.observe("plds.cascade_queue", 3, phase="rise")
        reg.observe("plds.cascade_queue", 700, phase="rise")
        assert reg.counter_value("service.batches") == 3
        assert reg.gauge_value("plds.num_levels") == 14
        assert reg.histogram_count("plds.cascade_queue", phase="rise") == 2
        assert reg.counter_value("nope") == 0
        assert reg.gauge_value("nope") is None

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        reg.inc("faults.fired", site="plds.rise")
        reg.inc("faults.fired", site="plds.desaturate")
        assert reg.counter_value("faults.fired", site="plds.rise") == 1
        assert reg.counter_value("faults.fired") == 0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(buckets=(5, 1))

    def test_prometheus_roundtrip(self):
        reg = MetricsRegistry()
        reg.inc("service.retries", 4)
        reg.gauge("plds.level_occupancy", 17, level=2)
        reg.observe("plds.cascade_queue", 3, phase="rise")
        reg.observe("plds.cascade_queue", 9, phase="rise")
        text = reg.to_prometheus()
        samples = parse_prometheus(text)
        assert samples[("repro_service_retries_total", ())] == 4
        assert samples[
            ("repro_plds_level_occupancy", (("level", "2"),))
        ] == 17
        # Buckets are cumulative; the +Inf bucket equals the count.
        assert samples[
            (
                "repro_plds_cascade_queue_bucket",
                (("le", "+Inf"), ("phase", "rise")),
            )
        ] == 2
        assert samples[
            ("repro_plds_cascade_queue_sum", (("phase", "rise"),))
        ] == 12

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("not a metric line at all { ] }\n")

    def test_json_dump_format(self):
        reg = MetricsRegistry()
        reg.inc("a.b")
        reg.observe("h", 3)
        data = reg.to_json_dict()
        assert data["format"] == 1
        assert data["counters"][0] == {"name": "a.b", "labels": {}, "value": 1}
        hist = data["histograms"][0]
        assert hist["count"] == 1 and hist["buckets"]["5"] == 1

    def test_collecting_installs_engine_hook(self, tracker):
        with collecting() as reg:
            tracker.flat_parfor(range(3), lambda i: tracker.add())
            tracker.flat_parfor(range(2), lambda i: tracker.add())
        assert reg.counter_value("engine.parfor.calls") == 2
        # Hook must be detached afterwards: no further counting.
        tracker.flat_parfor(range(3), lambda i: tracker.add())
        assert reg.counter_value("engine.parfor.calls") == 2

    def test_record_level_structure_gauges_plds(self):
        from repro.core.plds import PLDS

        plds = PLDS(n_hint=40)
        plds.update(Batch(insertions=barabasi_albert(30, 3, seed=1)))
        reg = MetricsRegistry()
        record_level_structure(reg, plds)
        assert reg.gauge_value("structure.num_vertices") == plds.num_vertices
        assert reg.gauge_value("structure.num_edges") == plds.num_edges
        hist = plds.level_histogram()
        total = sum(
            reg.gauge_value("plds.level_occupancy", level=lv) for lv in hist
        )
        assert total == plds.num_vertices
        assert reg.gauge_value("plds.num_levels") == plds.num_levels

    def test_record_level_structure_tolerates_flat_engines(self):
        class Flat:
            num_vertices = 5
            num_edges = 7

        reg = MetricsRegistry()
        record_level_structure(reg, Flat())
        assert reg.gauge_value("structure.num_edges") == 7
        assert reg.gauge_value("plds.num_levels") is None


class TestExporters:
    def _roots(self, tracker):
        t = Tracer()
        with t.span("batch", tracker, algorithm="plds"):
            tracker.add(work=3, depth=1)
            with t.span("rise", tracker, level=2):
                tracker.add(work=4, depth=2)
        return t.roots

    def test_chrome_trace_structure(self, tracker):
        trace = to_chrome_trace(self._roots(tracker))
        events = trace["traceEvents"]
        meta, batch, rise = events
        assert meta["ph"] == "M" and meta["args"]["name"] == "repro"
        assert batch["ph"] == "X" and batch["name"] == "batch"
        assert batch["ts"] == 0.0  # rebased to the earliest root
        assert batch["tid"] == 1 and rise["tid"] == 2  # nesting depth
        assert rise["args"]["work"] == 4 and rise["args"]["level"] == 2
        assert rise["dur"] <= batch["dur"]

    def test_chrome_trace_empty_forest(self):
        trace = to_chrome_trace([])
        assert len(trace["traceEvents"]) == 1  # metadata only

    def test_write_chrome_trace_is_valid_json(self, tracker, tmp_path):
        path = tmp_path / "t.trace.json"
        write_chrome_trace(str(path), self._roots(tracker))
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"

    def test_jsonl_flat_records(self, tracker, tmp_path):
        path = tmp_path / "spans.jsonl"
        write_jsonl(str(path), self._roots(tracker))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["batch", "rise"]
        assert records[0]["num_children"] == 1
        assert "children" not in records[0]
        assert records[1]["parent_id"] == records[0]["span_id"]

    def test_jsonl_empty(self):
        assert to_jsonl([]) == ""


class TestServiceIntegration:
    def test_batch_spans_reconcile_with_telemetry_exactly(self):
        svc, batches = serve_workload()
        with tracing() as tracer:
            for b in batches:
                svc.apply_batch(b)
        roots = tracer.roots
        batch_spans = [s for s in roots if s.name == "service.batch"]
        assert len(batch_spans) == len(batches) == len(svc.telemetry)
        for span, tel in zip(batch_spans, svc.telemetry):
            assert (span.work, span.depth) == (tel.work, tel.depth)

    def test_span_tree_reconciles_internally(self):
        svc, batches = serve_workload()
        with tracing() as tracer:
            for b in batches:
                svc.apply_batch(b)
        names = set()
        for span in iter_spans(tracer.roots):
            names.add(span.name)
            if span.children:
                sw, sd = self_cost(span)
                assert sw >= 0 and sd >= 0
                assert span.work == sw + sum(c.work for c in span.children)
        assert {"service.batch", "service.apply", "plds.update"} <= names
        assert "plds.rise" in names and "plds.desaturate" in names

    def test_untraced_run_is_bit_identical(self):
        svc_a, batches = serve_workload()
        svc_b, _ = serve_workload()
        for b in batches:
            svc_a.apply_batch(b)
        with tracing():
            for b in batches:
                svc_b.apply_batch(b)
        assert svc_a.coreness_map() == svc_b.coreness_map()
        assert [t.work for t in svc_a.telemetry] == [
            t.work for t in svc_b.telemetry
        ]

    def test_service_counters(self):
        svc, batches = serve_workload()
        with collecting() as reg:
            for b in batches:
                svc.apply_batch(b)
        assert reg.counter_value("service.batches") == len(batches)
        assert reg.counter_value("plds.rise_levels") > 0
        assert reg.counter_value("plds.desaturate_levels") > 0
        assert reg.histogram_count("plds.cascade_queue", phase="rise") > 0

    def test_fault_recovery_counters_and_spans(self):
        from repro.service import AuditPolicy, RetryPolicy

        svc = CoreService(
            "pldsopt",
            n_hint=61,
            retry=RetryPolicy(max_attempts=3),
            audit=AuditPolicy("on-recovery"),
        )
        batches = chaos_workload(60, 40, seed=3)
        plan = faults.FaultPlan([faults.FaultPoint("plds.rise", 5)])
        with collecting() as reg, tracing() as tracer, faults.active(plan):
            for b in batches:
                svc.apply_batch(b)
        assert plan.fired
        assert reg.counter_value("faults.fired", site="plds.rise") == 1
        assert reg.counter_value("service.rollbacks") == 1
        assert reg.counter_value("service.retries") == 1
        # Internal rollback is not a user-facing restore.
        assert reg.counter_value("service.restores", mode="snapshot") == 0
        failed = [
            s
            for s in iter_spans(tracer.roots)
            if s.name == "service.apply" and s.error == "InjectedFault"
        ]
        assert len(failed) == 1
        # Recovery still reconciles: the end state matches an untraced run.
        ref, _ = serve_workload()
        for b in batches:
            ref.apply_batch(b)
        assert svc.coreness_map() == ref.coreness_map()

    def test_restore_truncates_telemetry_and_counts(self):
        svc, batches = serve_workload()
        for b in batches[: len(batches) // 2]:
            svc.apply_batch(b)
        snap = svc.snapshot()
        kept = len(svc.telemetry)
        for b in batches[len(batches) // 2 :]:
            svc.apply_batch(b)
        with collecting() as reg, tracing() as tracer:
            svc.restore(snap)
        assert len(svc.telemetry) == kept
        assert all(t.batch_id <= snap.batches_applied for t in svc.telemetry)
        assert reg.counter_value("service.restores", mode="snapshot") == 1
        (span,) = [
            s for s in iter_spans(tracer.roots) if s.name == "service.restore"
        ]
        assert span.attrs["mode"] == "snapshot"
        assert span.attrs["snapshot_id"] == snap.snapshot_id

    def test_from_journal_emits_restore_metrics(self):
        svc, batches = serve_workload(vertices=40)
        for b in batches:
            svc.apply_batch(b)
        with collecting() as reg, tracing() as tracer:
            rebuilt = CoreService.from_journal(
                svc.journal, svc.algorithm, n_hint=41
            )
        assert rebuilt.coreness_map() == svc.coreness_map()
        assert reg.counter_value("service.restores", mode="journal") == 1
        restore_roots = [s for s in tracer.roots if s.name == "service.restore"]
        assert restore_roots and restore_roots[0].attrs["mode"] == "journal"

    def test_telemetry_to_dict_roundtrips(self):
        svc, batches = serve_workload(vertices=40)
        tel = svc.apply_batch(batches[0])
        d = tel.to_dict()
        assert d["batch_id"] == tel.batch_id
        assert d["work"] == tel.work
        json.dumps(d)  # JSON-serializable as-is


class TestHarnessIntegration:
    def test_run_chaos_trace_attaches_report_sections(self):
        report = run_chaos(vertices=60, trials=2, seed=1, trace=True)
        assert report.ok
        assert report.trace  # baseline span forest
        assert report.trace[0]["name"] == "service.batch"
        metrics = report.metrics
        assert metrics is not None and metrics["format"] == 1
        fired = [
            c for c in metrics["counters"] if c["name"] == "faults.fired"
        ]
        assert sum(c["value"] for c in fired) >= 2  # one per trial
        data = report.to_json_dict()
        assert "trace" in data and "metrics" in data
        json.dumps(data)

    def test_run_chaos_untraced_report_unchanged(self):
        report = run_chaos(vertices=60, trials=1, seed=1)
        data = report.to_json_dict()
        assert "trace" not in data and "metrics" not in data
        assert data["trials"][0]["recovery_telemetry"]  # satellite: rows present


class TestObsCli:
    def run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_trace_command_chrome(self, capsys, tmp_path):
        out_path = tmp_path / "t.trace.json"
        code, out = self.run(
            capsys,
            "trace",
            "--vertices", "60",
            "--batch-size", "40",
            "--output", str(out_path),
        )
        assert code == 0
        assert "reconciliation" in out and "OK" in out
        trace = json.loads(out_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "service.batch" in names and "plds.rise" in names

    def test_trace_command_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "spans.jsonl"
        code, _ = self.run(
            capsys,
            "trace",
            "--vertices", "60",
            "--format", "jsonl",
            "--output", str(out_path),
        )
        assert code == 0
        records = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert any(r["name"] == "plds.update" for r in records)

    def test_metrics_command_prom_parses(self, capsys):
        code, out = self.run(
            capsys, "metrics", "--vertices", "60", "--format", "prom"
        )
        assert code == 0
        samples = parse_prometheus(out)
        assert samples[("repro_service_batches_total", ())] > 0
        assert any(n == "repro_plds_level_occupancy" for n, _ in samples)

    def test_metrics_command_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "metrics.json"
        code, _ = self.run(
            capsys,
            "metrics",
            "--vertices", "60",
            "--format", "json",
            "--output", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["format"] == 1

    def test_trace_out_alias(self, capsys, tmp_path):
        out_path = tmp_path / "alias.trace.json"
        code, _ = self.run(
            capsys,
            "trace",
            "--vertices", "60",
            "--batch-size", "40",
            "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["traceEvents"]

    def test_metrics_prometheus_format_spelling(self, capsys, tmp_path):
        out_path = tmp_path / "metrics.prom"
        code, _ = self.run(
            capsys,
            "metrics",
            "--vertices", "60",
            "--format", "prometheus",
            "--out", str(out_path),
        )
        assert code == 0
        samples = parse_prometheus(out_path.read_text())
        assert samples[("repro_service_batches_total", ())] > 0

    def test_unwritable_output_exits_2_with_site(self, capsys, tmp_path):
        from repro.cli import main

        missing_dir = tmp_path / "no" / "such" / "dir"
        for argv in (
            ["trace", "--vertices", "40",
             "--out", str(missing_dir / "t.json")],
            ["metrics", "--vertices", "40",
             "--out", str(missing_dir / "m.prom")],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("repro: error:") and ".py:" in err

    def test_cli_leaves_hooks_clear(self, capsys, tmp_path):
        self.run(
            capsys, "trace", "--vertices", "60",
            "--output", str(tmp_path / "t.json"),
        )
        self.run(capsys, "metrics", "--vertices", "60")
        assert obs_tracing.ACTIVE is None
        assert obs_metrics.ACTIVE is None

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        from repro import cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            cli, "build_parser", lambda: _FakeParser(boom)
        )
        assert cli.main(["x"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_error_line_names_raising_site(self, capsys):
        from repro.cli import main

        code = main(["kcore", "--edges", "/definitely/not/here.txt"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro: error:")
        assert ".py:" in err  # the (file.py:line) suffix


class TestCommittedSamples:
    """The samples in docs/samples/ must stay internally consistent."""

    def _samples_dir(self):
        import pathlib

        return pathlib.Path(__file__).resolve().parent.parent / "docs" / "samples"

    def test_committed_jsonl_reconciles(self):
        path = self._samples_dir() / "powerlaw.spans.jsonl"
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records
        by_id = {r["span_id"]: r for r in records}
        children: dict[int, list[dict]] = {}
        for r in records:
            if r["parent_id"] is not None:
                children.setdefault(r["parent_id"], []).append(r)
        for r in records:
            kids = children.get(r["span_id"], [])
            assert len(kids) == r["num_children"]
            if kids:
                # Parent == self + sum(children), exact integer equality.
                assert r["work"] >= sum(k["work"] for k in kids)
                assert r["depth"] >= sum(k["depth"] for k in kids)
        # Root service.batch spans partition the run's total cost.
        roots = [r for r in records if r["parent_id"] is None]
        assert all(r["name"] == "service.batch" for r in roots)
        assert sum(r["work"] for r in roots) > 0

    def test_committed_chrome_trace_parses(self):
        path = self._samples_dir() / "powerlaw.trace.json"
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M"
        names = {e["name"] for e in events}
        assert {"service.batch", "plds.update", "plds.rise"} <= names
        complete = [e for e in events if e.get("ph") == "X"]
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)


class TestPLDSStats:
    def test_level_histogram_counts_all_vertices(self):
        plds = build_plds(erdos_renyi(60, 240, seed=1))
        hist = plds.level_histogram()
        assert sum(hist.values()) == plds.num_vertices
        assert all(0 <= l < plds.num_levels for l in hist)

    def test_group_histogram_consistent_with_levels(self):
        plds = build_plds(erdos_renyi(60, 240, seed=1))
        lv = plds.level_histogram()
        gr = plds.group_histogram()
        assert sum(gr.values()) == sum(lv.values())
        regrouped: dict[int, int] = {}
        for level, c in lv.items():
            g = plds.group_number(level)
            regrouped[g] = regrouped.get(g, 0) + c
        assert regrouped == gr

    def test_stats_snapshot_fields(self):
        plds = build_plds(erdos_renyi(60, 240, seed=1))
        s = plds.stats()
        assert s["num_vertices"] == 60
        assert s["num_edges"] == 240
        assert s["work"] > 0
        assert s["max_level_in_use"] <= s["num_levels"]
        assert 0 < s["mean_level"] <= s["max_level_in_use"]

    def test_stats_on_empty_structure(self):
        s = PLDS(n_hint=10).stats()
        assert s["num_vertices"] == 0
        assert s["mean_level"] == 0.0


class TestVertexUpdateRebuild:
    def test_rebuild_counter_triggers(self):
        plds = PLDS(n_hint=40)
        edges = erdos_renyi(30, 80, seed=2)
        plds.update(Batch(insertions=edges))
        # Churn vertices well past n/2 updates: isolated adds + removes.
        for i in range(5):
            plds.insert_vertices(range(100 + i * 10, 110 + i * 10))
        plds.delete_vertices(range(100, 150))
        assert plds._vertex_updates <= max(plds.n_hint // 2, 8)
        assert_no_violations(plds)
        assert set(plds.edges()) == set(edges)

    def test_structure_shrinks_after_mass_vertex_deletion(self):
        plds = PLDS(n_hint=20)
        plds.insert_vertices(range(500))  # forces growth rebuilds
        grown_hint = plds.n_hint
        assert grown_hint >= 500
        plds.delete_vertices(range(500))
        assert plds.n_hint < grown_hint
        assert plds.num_vertices == 0

    def test_estimates_survive_rebuild(self):
        edges = erdos_renyi(50, 200, seed=3)
        plds = PLDS(n_hint=8)
        plds.update(Batch(insertions=edges))
        exact = exact_coreness(edges)
        for v, k in exact.items():
            if k == 0:
                continue
            est = plds.coreness_estimate(v)
            assert est > 0
            assert max(est / k, k / est) <= plds.approximation_factor() + 1e-9


class TestSlidingWindow:
    def test_window_size_respected(self):
        edges = erdos_renyi(80, 300, seed=4)
        batches = sliding_window_batches(edges, window=100, batch_size=40)
        live: set = set()
        for b in batches:
            live |= set(b.insertions)
            live -= set(b.deletions)
            assert len(live) <= 100

    def test_all_edges_eventually_inserted(self):
        edges = erdos_renyi(80, 300, seed=4)
        batches = sliding_window_batches(edges, window=100, batch_size=40)
        inserted = [e for b in batches for e in b.insertions]
        # cancelled pairs excepted, every edge appears at most once
        assert len(inserted) == len(set(inserted))

    def test_no_same_batch_insert_delete_conflicts(self):
        edges = erdos_renyi(80, 300, seed=4)
        for b in sliding_window_batches(edges, window=10, batch_size=40):
            assert not set(b.insertions) & set(b.deletions)

    def test_plds_consumes_sliding_window(self):
        edges = erdos_renyi(80, 300, seed=5)
        plds = PLDS(n_hint=90)
        live: set = set()
        for b in sliding_window_batches(edges, window=120, batch_size=30):
            plds.update(b)
            live |= set(b.insertions)
            live -= set(b.deletions)
            assert_no_violations(plds)
        assert set(plds.edges()) == live

    def test_param_validation(self):
        with pytest.raises(ValueError):
            sliding_window_batches([(0, 1)], window=0, batch_size=1)
        with pytest.raises(ValueError):
            sliding_window_batches([(0, 1)], window=5, batch_size=0)


class TestErrorPercentiles:
    def test_monotone_in_percentile(self):
        est = {i: float(i % 4 + 1) for i in range(100)}
        exact = {i: 2 for i in range(100)}
        pct = error_percentiles(est, exact)
        values = [pct[p] for p in sorted(pct)]
        assert values == sorted(values)

    def test_p100_equals_max(self):
        est = {1: 1.0, 2: 8.0}
        exact = {1: 1, 2: 2}
        stats = error_stats(est, exact)
        pct = error_percentiles(est, exact)
        assert pct[100.0] == stats.maximum == 4.0

    def test_skips_zero_cores(self):
        pct = error_percentiles({1: 5.0}, {1: 0})
        assert pct[100.0] == 1.0

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            error_percentiles({1: 1.0}, {1: 1}, percentiles=(150.0,))

    def test_median_of_uniform_distribution(self):
        est = {i: 2.0 for i in range(10)}
        exact = {i: 2 for i in range(10)}
        assert error_percentiles(est, exact)[50.0] == 1.0


class _FakeParser:
    def __init__(self, fn):
        self._fn = fn

    def parse_args(self, argv):
        import argparse

        return argparse.Namespace(fn=self._fn)
