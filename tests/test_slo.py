"""Tests for the continuous-telemetry layer: timelines, the flight
recorder, and the declarative SLO engine.

Determinism is the backbone of every check here: same-seed replays must
produce byte-identical ``timeline`` sections and ``FLIGHT`` dumps, and
SLO verdicts are pure functions of the artifact JSON.
"""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.graphs.generators import barabasi_albert
from repro.graphs.streams import Batch, insertion_batches
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import timeline as obs_timeline
from repro.obs.export import timeline_counter_events, to_chrome_trace
from repro.obs.metrics import MetricsRegistry, collecting
from repro.obs.recorder import FlightRecorder, recording
from repro.obs.slo import (
    DEFAULT_RULES,
    SLOReport,
    SLORule,
    SLOVerdict,
    evaluate_artifact,
    gate_report,
)
from repro.obs.timeline import (
    Timeline,
    counter_totals,
    gauge_track,
    sampling,
    series_key,
    split_series_key,
)
from repro.service import AuditPolicy, CoreService
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    LoadSignals,
)

pytestmark = pytest.mark.slo

EDGES = barabasi_albert(80, 3, seed=9)


def serve_batches(vertices=60, batch_size=40, seed=3):
    svc = CoreService("pldsopt", n_hint=vertices + 1)
    batches = insertion_batches(
        barabasi_albert(vertices, 3, seed=seed), batch_size, seed=seed
    )
    return svc, batches


# ---------------------------------------------------------------------------
# Timeline
# ---------------------------------------------------------------------------


class TestSeriesKey:
    def test_roundtrip(self):
        key = series_key("service.admission",
                         (("kind", "write"), ("tenant", "t0")))
        assert key == "service.admission{kind=write,tenant=t0}"
        assert split_series_key(key) == (
            "service.admission", (("kind", "write"), ("tenant", "t0"))
        )

    def test_plain_name(self):
        assert series_key("service.batches") == "service.batches"
        assert split_series_key("service.batches") == ("service.batches", ())

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            split_series_key("x{garbage}")


class TestTimeline:
    def test_sample_without_registry_is_none(self):
        assert obs_metrics.ACTIVE is None
        assert Timeline().sample(1) is None

    def test_delta_encoding(self):
        reg = MetricsRegistry()
        t = Timeline(reg)
        reg.inc("c", 3)
        reg.gauge("g", 7)
        reg.observe("h", 2.0)
        s1 = t.sample(1, kind="batch")
        assert s1["counters"] == {"c": 3}
        assert s1["gauges"] == {"g": 7}
        assert s1["histograms"] == {"h": {"count": 1, "sum": 2.0}}
        reg.inc("c", 2)
        s2 = t.sample(2)
        # Only the movement since sample 1; the unchanged gauge and the
        # quiet histogram are omitted entirely.
        assert s2 == {"tick": 2, "kind": "tick", "counters": {"c": 2}}
        reg.gauge("g", 8)
        s3 = t.sample(3)
        assert s3 == {"tick": 3, "kind": "tick", "gauges": {"g": 8}}

    def test_counter_totals_inverts_deltas(self):
        reg = MetricsRegistry()
        t = Timeline(reg)
        for i in range(5):
            reg.inc("c")
            reg.inc("d", i)
            t.sample(i)
        totals = counter_totals(t.samples)
        assert totals["c"] == reg.counter_value("c") == 5
        assert totals["d"] == reg.counter_value("d") == 10

    def test_gauge_track_step_function(self):
        reg = MetricsRegistry()
        t = Timeline(reg)
        for tick, value in ((1, 5), (2, 5), (3, 9)):
            reg.gauge("g", value)
            t.sample(tick)
        assert gauge_track(t.samples, "g") == [(1, 5), (3, 9)]

    def test_max_samples_drops_oldest(self):
        reg = MetricsRegistry()
        t = Timeline(reg, max_samples=3)
        for i in range(7):
            reg.inc("c")
            t.sample(i)
        assert len(t.samples) == 3 and t.dropped == 4
        assert [s["tick"] for s in t.samples] == [4, 5, 6]
        assert t.to_json_dict()["dropped"] == 4
        with pytest.raises(ValueError):
            Timeline(max_samples=0)

    def test_service_samples_per_batch(self):
        svc, batches = serve_batches()
        with collecting(), sampling() as t:
            for b in batches:
                svc.apply_batch(b)
        assert len(t.samples) == len(batches)
        assert all(s["kind"] == "batch" for s in t.samples)
        assert [s["tick"] for s in t.samples] == list(
            range(1, len(batches) + 1)
        )
        # Summed deltas equal the registry totals (one series spot check).
        totals = counter_totals(t.samples)
        assert totals["service.batches"] == len(batches)

    def test_no_sampling_without_timeline(self):
        svc, batches = serve_batches()
        assert obs_timeline.ACTIVE is None
        with collecting() as reg:
            for b in batches:
                svc.apply_batch(b)
        assert reg.counter_value("service.batches") == len(batches)

    def test_sampling_scope_restores_previous(self):
        outer = Timeline()
        with sampling(outer):
            assert obs_timeline.ACTIVE is outer
            with sampling() as inner:
                assert obs_timeline.ACTIVE is inner
            assert obs_timeline.ACTIVE is outer
        assert obs_timeline.ACTIVE is None

    def test_same_seed_timeline_byte_identical(self):
        def run():
            svc, batches = serve_batches(seed=5)
            with collecting(), sampling() as t:
                for b in batches:
                    svc.apply_batch(b)
            return json.dumps(t.to_json_dict(), sort_keys=True)

        assert run() == run()


class TestTimelineExport:
    def _samples(self):
        reg = MetricsRegistry()
        t = Timeline(reg)
        reg.inc("c", 3)
        reg.gauge("g", 7)
        t.sample(1)
        reg.inc("c", 2)
        reg.gauge("g", 4)
        t.sample(2)
        return t.samples

    def test_counter_events_cumulative(self):
        events = timeline_counter_events(self._samples())
        assert all(e["ph"] == "C" for e in events)
        c_values = [e["args"]["value"] for e in events if e["name"] == "c"]
        g_values = [e["args"]["value"] for e in events if e["name"] == "g"]
        # Counters render cumulatively, gauges at their sampled value —
        # the last counter event round-trips back to the series total.
        assert c_values == [3, 5]
        assert c_values[-1] == counter_totals(self._samples())["c"]
        assert g_values == [7, 4]
        assert [e["ts"] for e in events] == [1e6, 1e6, 2e6, 2e6]

    def test_chrome_trace_carries_counter_track(self):
        trace = to_chrome_trace([], timeline=self._samples())
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert phases[0] == "M" and "C" in phases


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


def _corrupt(svc: CoreService) -> None:
    """Desynchronize the engine from the mirror behind the service's back."""
    svc._adapter.update(Batch(insertions=[(900, 901)]))


class TestFlightRecorder:
    def test_ring_capacity_bounds_events(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.note("e", i=i)
        assert len(rec.events) == 4
        assert [e["i"] for e in rec.events] == [6, 7, 8, 9]
        assert [e["seq"] for e in rec.events] == [7, 8, 9, 10]

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(triggers=("fault", "nope"))
        with pytest.raises(ValueError):
            with recording(FlightRecorder(), capacity=4):
                pass

    def test_unarmed_trigger_notes_but_does_not_dump(self):
        rec = FlightRecorder(triggers=("fault",))
        assert rec.trip("backpressure", depth=9) is None
        assert not rec.dumps
        assert rec.events[-1]["kind"] == "trigger.backpressure"
        assert rec.trip("fault", site="x") is not None
        assert len(rec.dumps) == 1

    def test_dump_file_layout(self, tmp_path):
        rec = FlightRecorder(label="t", out_dir=str(tmp_path))
        rec.note("warmup", n=1)
        dump = rec.trip("fault", site="plds.rise", hit=2)
        assert dump["kind"] == "flight" and dump["sequence"] == 1
        assert dump["trigger"] == "fault"
        assert dump["detail"] == {"site": "plds.rise", "hit": 2}
        (path,) = rec.dump_paths
        assert path.endswith("FLIGHT_t_001_fault.json")
        assert json.loads((tmp_path / "FLIGHT_t_001_fault.json").read_text()) == dump

    def test_fault_fire_trips_recorder(self):
        from repro.bench.chaos import chaos_workload

        svc = CoreService("pldsopt", n_hint=61)
        batches = chaos_workload(60, 40, seed=3)
        plan = faults.FaultPlan([faults.FaultPoint("plds.rise", 5)])
        with recording() as rec, faults.active(plan):
            for b in batches:
                svc.apply_batch(b)
        assert plan.fired
        (dump,) = [d for d in rec.dumps if d["trigger"] == "fault"]
        assert dump["detail"]["site"] == "plds.rise"
        # The fault was retried and the run recovered; the ring recorded
        # the rollback and the batches around the crash.
        kinds = {e["kind"] for e in rec.events}
        assert "service.rollback" in kinds and "service.batch" in kinds

    def test_backpressure_engage_trips_recorder(self):
        ctl = AdmissionController(AdmissionPolicy(lag_threshold=10))
        with recording() as rec:
            ctl.observe(LoadSignals(shard_lag=50), now=1.0)
            ctl.observe(LoadSignals(shard_lag=60), now=2.0)  # still engaged
            for now in (3.0, 4.0, 5.0):
                ctl.observe(LoadSignals(), now=now)
        (dump,) = rec.dumps
        assert dump["trigger"] == "backpressure"
        assert dump["detail"]["shard_lag"] == 50
        assert rec.events[-1]["kind"] == "backpressure.released"

    def _degrading_run(self, out_dir, fail_rebuild, monkeypatch=None):
        rec = FlightRecorder(label="ladder", out_dir=out_dir)
        with recording(rec), collecting():
            svc = CoreService("plds", n_hint=1024, audit=AuditPolicy("every"))
            svc.apply_batch(Batch(insertions=EDGES[:60]))
            _corrupt(svc)
            if fail_rebuild:
                from repro.service import core as service_core

                real = service_core.rebuild_adapter

                def failing(key, n_hint, edges, **kwargs):
                    if key == "plds":
                        raise RuntimeError("rebuild path also corrupted")
                    return real(key, n_hint, edges, **kwargs)

                monkeypatch.setattr(
                    service_core, "rebuild_adapter", failing
                )
            svc.apply_batch(Batch(insertions=EDGES[60:90]))
        return rec, svc

    def test_ladder_rungs_quarantine_and_rebuild(self, tmp_path):
        rec, svc = self._degrading_run(str(tmp_path), fail_rebuild=False)
        assert svc.degraded_to == "plds"
        triggers = [(d["trigger"], d["detail"].get("rung")) for d in rec.dumps]
        assert ("audit", None) in triggers
        assert ("degrade", "quarantine") in triggers
        assert ("degrade", "rebuild") in triggers
        assert len(rec.dump_paths) == len(rec.dumps)

    def test_ladder_last_resort_rung(self, tmp_path, monkeypatch):
        rec, svc = self._degrading_run(
            str(tmp_path), fail_rebuild=True, monkeypatch=monkeypatch
        )
        assert svc.degraded_to == "exactkcore"
        rungs = [
            d["detail"].get("rung")
            for d in rec.dumps
            if d["trigger"] == "degrade"
        ]
        assert rungs == ["quarantine", "exactkcore"]

    def test_ladder_dumps_bit_identical_across_replays(
        self, tmp_path, monkeypatch
    ):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        rec_a, _ = self._degrading_run(
            str(a), fail_rebuild=True, monkeypatch=monkeypatch
        )
        rec_b, _ = self._degrading_run(
            str(b), fail_rebuild=True, monkeypatch=monkeypatch
        )
        assert len(rec_a.dump_paths) == len(rec_b.dump_paths) >= 3
        for pa, pb in zip(rec_a.dump_paths, rec_b.dump_paths):
            assert (a / pa.split("/")[-1]).read_bytes() == (
                b / pb.split("/")[-1]
            ).read_bytes()

    def test_recording_scope_restores_previous(self):
        outer = FlightRecorder()
        with recording(outer):
            assert obs_recorder.ACTIVE is outer
            with recording() as inner:
                assert obs_recorder.ACTIVE is inner
            assert obs_recorder.ACTIVE is outer
        assert obs_recorder.ACTIVE is None


# ---------------------------------------------------------------------------
# SLO engine
# ---------------------------------------------------------------------------


def make_artifact(**overrides):
    """A minimal healthy soak-shaped artifact the rules can evaluate."""
    artifact = {
        "kind": "soak",
        "label": "t",
        "clock": {"end": 100.0},
        "totals": {"write_events": 100, "rejected": 5, "shed": 5},
        "consistency": {
            "reads_probed": 20, "reads_consistent": 20, "max_staleness": 1,
        },
        "degraded": {"time": 0.0},
        "tenants": {
            "t0": {
                "writes": {"events": 60, "admitted": 55, "rejected": 3,
                           "shed": 2, "p99_latency": 400.0},
                "reads": {"events": 12, "max_staleness": 1},
            },
            "t1": {
                "writes": {"events": 40, "admitted": 35, "rejected": 2,
                           "shed": 3, "p99_latency": None},
                "reads": {"events": 8, "max_staleness": 0},
            },
        },
    }
    artifact.update(overrides)
    return artifact


def rollback_timeline(bursts):
    """A timeline whose ``service.rollbacks`` deltas follow ``bursts``."""
    return {
        "format": 1,
        "dropped": 0,
        "samples": [
            {"tick": i + 1, "kind": "batch",
             "counters": {"service.rollbacks": b} if b else {}}
            for i, b in enumerate(bursts)
        ],
    }


class TestSLORules:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            SLORule("x", "not-a-kind", threshold=1)
        with pytest.raises(ValueError):
            SLORule("x", "max_staleness", threshold=1, window=-1)
        with pytest.raises(ValueError):
            SLORule("x", "max_staleness", threshold=1, burn_rate=0)
        with pytest.raises(ValueError):
            SLORule("x", "counter_burn", threshold=1, window=4)  # no series
        with pytest.raises(ValueError):
            SLORule("x", "counter_burn", threshold=1, series="s")  # no window

    def test_healthy_artifact_passes_defaults(self):
        report = evaluate_artifact(make_artifact())
        assert report.ok and not report.breaches
        assert {v.rule for v in report.verdicts} == {
            r.name for r in DEFAULT_RULES
        }

    def test_staleness_breach(self):
        artifact = make_artifact()
        artifact["tenants"]["t1"]["reads"]["max_staleness"] = 4
        report = evaluate_artifact(artifact)
        (breach,) = report.breaches
        assert breach.rule == "read-staleness" and breach.observed == 4

    def test_p99_breach_and_missing_latencies(self):
        artifact = make_artifact()
        artifact["tenants"]["t0"]["writes"]["p99_latency"] = 99999.0
        assert not evaluate_artifact(artifact).ok
        for t in artifact["tenants"].values():
            t["writes"]["p99_latency"] = None
        verdict = {
            v.rule: v for v in evaluate_artifact(artifact).verdicts
        }["write-p99"]
        assert verdict.ok and verdict.observed is None
        assert verdict.detail == "no write latencies"

    def test_consistency_breach(self):
        artifact = make_artifact(
            consistency={
                "reads_probed": 20, "reads_consistent": 19, "max_staleness": 1,
            }
        )
        (breach,) = evaluate_artifact(artifact).breaches
        assert breach.rule == "consistency" and breach.observed == 1

    def test_degraded_fraction_breach(self):
        artifact = make_artifact(degraded={"time": 80.0})
        (breach,) = evaluate_artifact(artifact).breaches
        assert breach.rule == "degraded-fraction"
        assert breach.observed == pytest.approx(0.8)

    def test_whole_run_rejection_breach(self):
        artifact = make_artifact(
            totals={"write_events": 100, "rejected": 60, "shed": 39}
        )
        (breach,) = evaluate_artifact(artifact).breaches
        assert breach.rule == "rejection-rate"
        assert breach.window == "whole-run"

    def test_windowed_rejection_storm_breaches(self):
        # Whole-run rate is tiny, but one 16-sample window is 100% refusals.
        quiet = {"tick": 0, "kind": "tick", "counters": {
            series_key("service.admission",
                       (("kind", "write"), ("outcome", "admitted"),
                        ("tenant", "t0"))): 50,
        }}
        storm = {"tick": 0, "kind": "tick", "counters": {
            series_key("service.admission",
                       (("kind", "write"), ("outcome", "shed"),
                        ("tenant", "t0"))): 5,
        }}
        samples = [dict(quiet, tick=i) for i in range(20)]
        samples += [dict(storm, tick=20 + i) for i in range(16)]
        artifact = make_artifact(
            totals={"write_events": 1080, "rejected": 0, "shed": 80},
            timeline={"format": 1, "dropped": 0, "samples": samples},
        )
        rule = SLORule("storm", "rejection_rate", threshold=0.5, window=16,
                       burn_rate=1.2)
        (breach,) = evaluate_artifact(artifact, rules=(rule,)).breaches
        assert breach.observed == 1.0
        assert breach.allowed == pytest.approx(0.6)
        assert breach.window.startswith("samples[20:36]")

    def test_counter_burn_window(self):
        rule = SLORule("burn", "counter_burn", threshold=10, window=4,
                       burn_rate=1.0, series="service.rollbacks")
        quiet = make_artifact(
            timeline=rollback_timeline([1, 2, 0, 1, 2, 1, 0, 0])
        )
        assert evaluate_artifact(quiet, rules=(rule,)).ok
        bursty = make_artifact(
            timeline=rollback_timeline([1, 2, 0, 1, 9, 3, 0, 0])
        )
        (breach,) = evaluate_artifact(bursty, rules=(rule,)).breaches
        assert breach.observed == 13  # worst 4-sample window: 1+9+3+0
        assert "samples[" in breach.window

    def test_counter_burn_vacuous_without_timeline(self):
        rule = SLORule("burn", "counter_burn", threshold=10, window=4,
                       series="service.rollbacks")
        verdict = evaluate_artifact(make_artifact(), rules=(rule,)).verdicts[0]
        assert verdict.ok and verdict.observed is None
        assert "no timeline" in verdict.detail
        short = make_artifact(timeline=rollback_timeline([1, 2]))
        verdict = evaluate_artifact(short, rules=(rule,)).verdicts[0]
        assert verdict.ok and "shorter than window" in verdict.detail

    def test_gate_report_names_rule_and_window(self):
        artifact = make_artifact(degraded={"time": 80.0})
        report = evaluate_artifact(artifact)
        with pytest.raises(ValueError, match=r"degraded-fraction.*whole-run"):
            gate_report(report)
        gate_report(evaluate_artifact(make_artifact()))  # no-op when ok

    def test_breach_trips_recorder_slo_trigger(self):
        artifact = make_artifact(degraded={"time": 80.0})
        with recording() as rec:
            evaluate_artifact(artifact)
        (dump,) = rec.dumps
        assert dump["trigger"] == "slo"
        assert dump["detail"]["rule"] == "degraded-fraction"

    def test_report_json_deterministic(self):
        artifact = make_artifact(degraded={"time": 80.0})
        a = json.dumps(evaluate_artifact(artifact).to_json_dict(),
                       sort_keys=True)
        b = json.dumps(evaluate_artifact(artifact).to_json_dict(),
                       sort_keys=True)
        assert a == b
        data = json.loads(a)
        assert data["kind"] == "slo" and data["breaches"] == 1

    def test_report_shape(self):
        report = SLOReport(
            label="x",
            verdicts=(
                SLOVerdict("a", "consistency", True, 0.0, 0.0, "whole-run"),
                SLOVerdict("b", "consistency", False, 2.0, 0.0, "whole-run"),
            ),
        )
        assert not report.ok
        assert [v.rule for v in report.breaches] == ["b"]


# ---------------------------------------------------------------------------
# Soak artifact + CLI integration
# ---------------------------------------------------------------------------


class TestSoakTimelineIntegration:
    def _config(self, sample_every=25.0, seed=4):
        from repro.traffic import SoakConfig, default_mix

        return SoakConfig(
            mix=default_mix(2, rate=0.05),
            horizon=200.0,
            seed=seed,
            sample_every=sample_every,
        )

    def test_soak_artifact_has_timeline_section(self):
        from repro.traffic import SoakRunner

        runner = SoakRunner(self._config())
        runner.run()
        artifact = runner.report()
        timeline = artifact["timeline"]
        assert timeline["format"] == 1
        kinds = {s["kind"] for s in timeline["samples"]}
        assert "end" in kinds and ("tick" in kinds or "batch" in kinds)
        assert artifact["config"]["sample_every"] == 25.0

    def test_sample_every_zero_disables(self):
        from repro.traffic import SoakRunner

        runner = SoakRunner(self._config(sample_every=0.0))
        runner.run()
        assert "timeline" not in runner.report()
        with pytest.raises(ValueError):
            self._config(sample_every=-1.0)

    def test_same_seed_soak_artifact_byte_identical(self):
        from repro.traffic import SoakRunner

        def run():
            runner = SoakRunner(self._config(seed=6))
            runner.run()
            return json.dumps(runner.report(), sort_keys=True)

        assert run() == run()


class TestSLOCli:
    def _artifact_path(self, tmp_path, **overrides):
        path = tmp_path / "SOAK_x.json"
        path.write_text(json.dumps(make_artifact(**overrides)))
        return str(path)

    def run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_slo_pass_and_report_out(self, tmp_path, capsys):
        out = tmp_path / "slo.json"
        code = self.run(
            "slo", self._artifact_path(tmp_path), "--out", str(out)
        )
        assert code == 0
        assert "slo check: OK" in capsys.readouterr().out
        assert json.loads(out.read_text())["ok"] is True

    def test_slo_breach_exit_1_without_gate(self, tmp_path, capsys):
        path = self._artifact_path(tmp_path, degraded={"time": 80.0})
        assert self.run("slo", path) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_slo_gate_exit_2_names_rule_window_site(self, tmp_path, capsys):
        path = self._artifact_path(tmp_path, degraded={"time": 80.0})
        code = self.run("slo", path, "--gate")
        err = capsys.readouterr().err
        assert code == 2
        assert "SLO breach: degraded-fraction over whole-run" in err
        assert ".py:" in err

    def test_slo_threshold_overrides(self, tmp_path, capsys):
        path = self._artifact_path(tmp_path)
        # Healthy artifact, absurdly tight override => injected breach.
        assert self.run("slo", path, "--gate", "--max-staleness", "0") == 2
        assert "read-staleness" in capsys.readouterr().err
        assert self.run("slo", path, "--degraded-fraction", "0.9") == 0

    def test_dash_renders_sections(self, tmp_path, capsys):
        path = self._artifact_path(
            tmp_path, timeline=rollback_timeline([1, 0, 2, 1])
        )
        assert self.run("dash", path) == 0
        out = capsys.readouterr().out
        assert "service counters" in out
        assert "service.rollbacks" in out
        assert "tenant" in out  # the per-tenant table

    def test_dash_without_timeline_exits_2(self, tmp_path, capsys):
        assert self.run("dash", self._artifact_path(tmp_path)) == 2
        assert "timeline" in capsys.readouterr().err

    def test_soak_cli_flight_dir_and_slo_gate(self, tmp_path, capsys):
        code = self.run(
            "soak",
            "--tenants", "2",
            "--horizon", "200",
            "--seed", "4",
            "--fault-rate", "0.1",
            "--label", "t",
            "--output-dir", str(tmp_path),
            "--flight-dir", str(tmp_path / "flight"),
        )
        assert code == 0
        capsys.readouterr()
        artifact = tmp_path / "SOAK_t.json"
        assert "timeline" in json.loads(artifact.read_text())
        assert self.run("slo", str(artifact), "--gate") == 0
