"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDatasets:
    def test_lists_eleven(self, capsys):
        code, out = run_cli(capsys, "datasets", "--scale", "0.15")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 12  # header + 11 datasets
        assert "dblp" in out and "friendster" in out

    def test_scale_changes_sizes(self, capsys):
        _, small = run_cli(capsys, "datasets", "--scale", "0.15")
        _, large = run_cli(capsys, "datasets", "--scale", "0.3")
        assert small != large


class TestKcore:
    def test_runs_on_dataset(self, capsys):
        code, out = run_cli(
            capsys, "kcore", "--dataset", "dblp", "--scale", "0.15",
            "--algorithm", "pldsopt", "--protocol", "ins",
        )
        assert code == 0
        assert "avg work / batch" in out
        assert "error ratio" in out

    @pytest.mark.parametrize("proto", ["ins", "del", "mix"])
    def test_all_protocols(self, capsys, proto):
        code, out = run_cli(
            capsys, "kcore", "--dataset", "ctr", "--scale", "0.15",
            "--protocol", proto,
        )
        assert code == 0
        assert "batches processed" in out

    def test_runs_on_edge_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n0 2\n2 3\n")
        code, out = run_cli(capsys, "kcore", "--edges", str(path))
        assert code == 0
        assert "4 edges" in out

    def test_unknown_dataset_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["kcore", "--dataset", "nope"])

    def test_custom_parameters(self, capsys):
        code, out = run_cli(
            capsys, "kcore", "--dataset", "usa", "--scale", "0.15",
            "--algorithm", "plds", "--delta", "0.8", "--lam", "6",
            "--batch-size", "50", "--max-batches", "2",
        )
        assert code == 0
        assert "batches processed : 2" in out


class TestCompare:
    def test_all_algorithms_listed(self, capsys):
        code, out = run_cli(
            capsys, "compare", "--dataset", "ctr", "--scale", "0.15",
            "--max-batches", "2",
        )
        assert code == 0
        for key in ("plds", "pldsopt", "lds", "sun", "hua", "zhang"):
            assert key in out


class TestScalability:
    def test_speedup_table(self, capsys):
        code, out = run_cli(
            capsys, "scalability", "--dataset", "usa", "--scale", "0.15"
        )
        assert code == 0
        assert "threads" in out
        assert "60" in out


class TestStatic:
    def test_static_comparison(self, capsys):
        code, out = run_cli(capsys, "static", "--dataset", "dblp", "--scale", "0.15")
        assert code == 0
        assert "ExactKCore" in out
        assert "ApproxKCore" in out
        assert "max error ratio" in out


class TestAdversary:
    @pytest.mark.parametrize("workload", ["cycle", "cascade", "clique", "star"])
    def test_workloads_run(self, capsys, workload):
        code, out = run_cli(
            capsys, "adversary", "--workload", workload,
            "--size", "20", "--rounds", "2",
        )
        assert code == 0
        assert "invariants OK" in out
        assert "Zhang" in out

    def test_cycle_contrast_visible(self, capsys):
        code, out = run_cli(
            capsys, "adversary", "--workload", "cycle",
            "--size", "120", "--rounds", "3",
        )
        lines = {l.split(":")[0].strip(): l for l in out.splitlines() if ":" in l}
        plds_w = float(lines["PLDS  work/batch"].split(":")[1].split()[0])
        zhang_w = float(lines["Zhang work/batch"].split(":")[1].split()[0])
        assert zhang_w > 10 * plds_w


class TestWindow:
    def test_window_monitor_runs(self, capsys):
        code, out = run_cli(
            capsys, "window", "--dataset", "ctr", "--scale", "0.15",
        )
        assert code == 0
        assert "sliding window" in out
        assert "err avg" in out

    def test_custom_window(self, capsys):
        code, out = run_cli(
            capsys, "window", "--dataset", "usa", "--scale", "0.15",
            "--window", "40", "--batch-size", "10",
        )
        assert code == 0
        assert "window=40" in out


class TestService:
    def test_serving_session_with_telemetry(self, capsys):
        code, out = run_cli(
            capsys, "service", "--dataset", "ctr", "--scale", "0.15",
            "--batch-size", "10",
        )
        assert code == 0
        assert "T_p" in out                  # per-batch simulated time column
        assert "snapshot #1" in out          # mid-stream consistent snapshot
        assert "busiest vertex" in out

    def test_any_registry_algorithm_serves(self, capsys):
        code, out = run_cli(
            capsys, "service", "--dataset", "ctr", "--scale", "0.15",
            "--algorithm", "zhang", "--max-batches", "2",
        )
        assert code == 0
        assert "algorithm=zhang" in out


@pytest.mark.soak
class TestSoak:
    def test_small_soak_writes_artifact(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "soak", "--tenants", "2", "--horizon", "120",
            "--seed", "3", "--label", "t", "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert "soak SLO check: OK" in out
        import json

        report = json.loads((tmp_path / "SOAK_t.json").read_text())
        assert report["ok"] and not report["interrupted"]
        assert set(report["tenants"]) == {"tenant0", "tenant1"}

    def test_same_seed_reruns_bit_identically(self, capsys, tmp_path):
        argv = ["soak", "--tenants", "2", "--horizon", "100", "--seed", "7",
                "--fault-rate", "0.1", "--label", "x",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        first = (tmp_path / "SOAK_x.json").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "SOAK_x.json").read_bytes() == first
        capsys.readouterr()

    def test_interrupt_flushes_partial_artifact(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.traffic import SoakRunner

        def interrupted_run(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(SoakRunner, "run", interrupted_run)
        code = main([
            "soak", "--tenants", "2", "--horizon", "60",
            "--label", "part", "--output-dir", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 130
        assert "interrupted" in err and "flushed partial" in err
        import json

        report = json.loads((tmp_path / "SOAK_part.json").read_text())
        assert report["interrupted"] and not report["ok"]

    def test_mismatched_stall_flags_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["soak", "--stall-from", "10"])


@pytest.mark.soak
class TestJournalCommand:
    def _dump(self, tmp_path):
        from repro.graphs.streams import Batch, UpdateJournal

        journal = UpdateJournal()
        journal.commit(journal.begin(Batch(insertions=[(0, 1), (1, 2)])))
        journal.commit(journal.begin(Batch(insertions=[(2, 3)])))
        path = tmp_path / "journal.json"
        journal.dump(str(path))
        return path

    def test_inspects_intact_journal(self, capsys, tmp_path):
        path = self._dump(tmp_path)
        code, out = run_cli(capsys, "journal", str(path))
        assert code == 0
        assert "2 records (2 committed" in out
        assert "replayable history: 2 batches" in out

    def test_corrupt_journal_exits_2_without_traceback(
        self, capsys, tmp_path
    ):
        path = self._dump(tmp_path)
        path.write_text(path.read_text()[:150])
        code = main(["journal", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "corrupt at line" in captured.err
        assert "streams.py:" in captured.err     # file:line of the raise site
        assert "Traceback" not in captured.err

    def test_recover_salvages_prefix(self, capsys, tmp_path):
        path = self._dump(tmp_path)
        path.write_text(path.read_text()[:150])
        code, out = run_cli(capsys, "journal", str(path), "--recover")
        assert code == 0
        assert "RECOVERED" in out


class TestBatchSizeValidation:
    """``--batch-size`` or ``--max-batches`` below 1 is a usage error
    (exit 2) before any work."""

    @pytest.fixture(autouse=True)
    def _workloads_must_not_run(self, monkeypatch):
        import repro.bench.chaos
        import repro.cli

        def boom(*args, **kwargs):
            raise AssertionError("workload ran despite a bad --batch-size")

        monkeypatch.setattr(repro.bench.chaos, "run_chaos", boom)
        monkeypatch.setattr(repro.cli, "_obs_workload", boom)
        monkeypatch.setattr(repro.cli, "_load_edges", boom)

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize(
        "command", ["kcore", "service", "chaos", "trace", "metrics"]
    )
    def test_non_positive_rejected_at_parse_time(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--batch-size", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--batch-size" in err and "must be >= 1" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_max_batches_rejected(self, capsys, value):
        # Previously -1 sliced off the last batch and 0 ran none, exit 0.
        with pytest.raises(SystemExit) as exc:
            main(["kcore", "--scale", "0.05", "--batch-size", "50",
                  "--max-batches", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--max-batches" in err and "must be >= 1" in err


class TestOutputPathValidation:
    """A missing output directory fails before any workload runs, exit 2."""

    @pytest.fixture(autouse=True)
    def _workloads_must_not_run(self, monkeypatch):
        import repro.bench.chaos
        import repro.cli
        import repro.traffic

        def boom(*args, **kwargs):
            raise AssertionError("workload ran despite a missing output path")

        monkeypatch.setattr(repro.bench.chaos, "run_chaos", boom)
        monkeypatch.setattr(repro.cli, "_obs_workload", boom)
        monkeypatch.setattr(repro.traffic, "SoakRunner", boom)

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["chaos", "--vertices", "60", "--trials", "1", "--json"], "--json"),
            (["trace", "--out"], "--out"),
            (["metrics", "--out"], "--out"),
            (["soak", "--output-dir"], "--output-dir"),
        ],
        ids=["chaos", "trace", "metrics", "soak"],
    )
    def test_missing_directory_exits_2_before_work(
        self, capsys, tmp_path, argv, flag
    ):
        missing = tmp_path / "missing"
        path = missing if flag == "--output-dir" else missing / "out.json"
        code = main(argv + [str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{flag} " in captured.err and "not found" in captured.err
        assert str(missing) in captured.err
        assert "cli.py:" in captured.err         # file:line of the raise site
        assert "Traceback" not in captured.err
        assert captured.out == ""                # no trial or progress line
