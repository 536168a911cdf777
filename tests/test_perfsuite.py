"""Perf-regression suite: BENCH json round-trip, comparison logic, CLI.

The perf harness (``repro bench``, :mod:`repro.bench.perfsuite`) is the
gate that keeps the hot-path optimizations honest across PRs, so its own
pieces need tests: the ``BENCH_<label>.json`` schema must survive a
write/load round trip, the regression comparison must classify
pass/regression/improvement/missing correctly around the tolerance band,
and the CLI path must produce a valid artifact end to end at tiny scale.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.bench.perfsuite import (
    BenchReport,
    PerfEntry,
    compare_bench,
    load_bench,
    run_suite,
    write_bench,
)
from repro.cli import main


def _report(label: str = "base", wall: float = 1.0) -> BenchReport:
    return BenchReport(
        label=label,
        scale=1.0,
        entries=[
            PerfEntry(
                workload="grid-mix",
                algo="pldsopt",
                wall_s=wall,
                work=1000,
                depth=50,
                space=4096,
            ),
            PerfEntry(
                workload="powerlaw-mix",
                algo="plds",
                wall_s=2 * wall,
                work=9000,
                depth=70,
                space=8192,
            ),
        ],
    )


# -- JSON schema round trip ---------------------------------------------


def test_bench_json_round_trip(tmp_path) -> None:
    report = _report()
    path = os.path.join(tmp_path, "BENCH_base.json")
    write_bench(path, report)
    loaded = load_bench(path)
    assert loaded == report

    # The on-disk shape is the documented schema, not an opaque pickle.
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    assert raw["format"] == 1
    assert raw["label"] == "base"
    assert raw["scale"] == 1.0
    assert {e["workload"] for e in raw["entries"]} == {
        "grid-mix",
        "powerlaw-mix",
    }
    assert set(raw["entries"][0]) == {
        "workload",
        "algo",
        "wall_s",
        "work",
        "depth",
        "space",
    }


def test_committed_bench_files_load() -> None:
    # Every BENCH_*.json at the repository root is a trajectory point a
    # later run may be gated against, so each must stay loadable.
    paths = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
    assert paths
    for path in paths:
        assert load_bench(str(path)).entries, path.name


def test_bench_report_entry_lookup() -> None:
    report = _report()
    assert report.entry("grid-mix", "pldsopt").work == 1000
    assert report.entry("grid-mix", "lds") is None


# -- regression comparison logic ----------------------------------------


def test_compare_identical_runs_pass() -> None:
    cmp = compare_bench(_report("cur"), _report("base"), tolerance=0.25)
    assert cmp.ok
    assert not cmp.regressions
    assert not cmp.improvements
    assert not cmp.missing


def test_compare_within_tolerance_passes() -> None:
    # +25% on a 25% tolerance sits exactly on the boundary: allowed.
    cmp = compare_bench(
        _report("cur", wall=1.25), _report("base", wall=1.0), tolerance=0.25
    )
    assert cmp.ok
    assert not cmp.regressions


def test_compare_flags_regression_beyond_tolerance() -> None:
    cmp = compare_bench(
        _report("cur", wall=1.3), _report("base", wall=1.0), tolerance=0.25
    )
    assert not cmp.ok
    metrics = {(c.workload, c.algo, c.metric) for c in cmp.regressions}
    # Only the wall times moved; work/depth/space are unchanged.
    assert metrics == {
        ("grid-mix", "pldsopt", "wall_s"),
        ("powerlaw-mix", "plds", "wall_s"),
    }


def test_compare_wall_slack_absorbs_tiny_scale_noise() -> None:
    # 0.4 ms -> 0.6 ms is +50%, but far under the absolute wall slack:
    # tiny --scale runs must not fail the gate on timer noise.
    cmp = compare_bench(
        _report("cur", wall=0.0006), _report("base", wall=0.0004),
        tolerance=0.25,
    )
    assert cmp.ok
    assert not cmp.regressions


def test_compare_flags_improvement() -> None:
    cmp = compare_bench(
        _report("cur", wall=0.5), _report("base", wall=1.0), tolerance=0.25
    )
    assert cmp.ok  # an improvement is not a failure
    assert {(c.workload, c.metric) for c in cmp.improvements} == {
        ("grid-mix", "wall_s"),
        ("powerlaw-mix", "wall_s"),
    }


def test_compare_deterministic_metric_regression() -> None:
    # Work is deterministic: any growth beyond tolerance must be flagged
    # even when wall time is fine.
    current = _report("cur")
    current.entries[0] = dataclasses.replace(current.entries[0], work=2000)
    cmp = compare_bench(current, _report("base"), tolerance=0.25)
    assert not cmp.ok
    assert [(c.metric, c.baseline, c.current) for c in cmp.regressions] == [
        ("work", 1000.0, 2000.0)
    ]


def test_compare_reports_missing_entries() -> None:
    current = _report("cur")
    del current.entries[1]
    cmp = compare_bench(current, _report("base"), tolerance=0.25)
    assert cmp.missing == [("powerlaw-mix", "plds")]


def test_compare_rejects_negative_tolerance() -> None:
    with pytest.raises(ValueError):
        compare_bench(_report("cur"), _report("base"), tolerance=-0.1)


# -- the suite itself and the CLI path ----------------------------------


def test_run_suite_tiny_scale_is_deterministic() -> None:
    kwargs = dict(
        scale=0.05, algos=("pldsopt",), workloads=("grid-mix",), repeats=1
    )
    first = run_suite(**kwargs)
    second = run_suite(**kwargs)
    assert len(first) == 1
    assert first[0].work == second[0].work
    assert first[0].depth == second[0].depth
    assert first[0].space == second[0].space
    assert first[0].work > 0 and first[0].depth > 0


def test_cli_bench_writes_artifact(tmp_path) -> None:
    rc = main(
        [
            "bench",
            "--scale",
            "0.05",
            "--label",
            "t",
            "--repeats",
            "1",
            "--workloads",
            "grid-mix",
            "--algos",
            "pldsopt",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    report = load_bench(os.path.join(tmp_path, "BENCH_t.json"))
    assert report.label == "t"
    assert report.scale == 0.05
    assert report.entry("grid-mix", "pldsopt") is not None


def test_cli_bench_baseline_gate(tmp_path) -> None:
    args = [
        "bench",
        "--scale",
        "0.05",
        "--repeats",
        "1",
        "--workloads",
        "grid-mix",
        "--algos",
        "pldsopt",
        "--output-dir",
        str(tmp_path),
    ]
    assert main(args + ["--label", "base"]) == 0
    base_path = os.path.join(tmp_path, "BENCH_base.json")

    # Same code vs itself: deterministic metrics match, walls are within
    # tolerance of each other — the gate passes.
    assert main(args + ["--label", "again", "--baseline", base_path]) == 0

    # Doctor the baseline so the rerun exceeds tolerance: gate fails.
    doctored = load_bench(base_path)
    doctored.entries = [
        dataclasses.replace(e, work=max(1, e.work // 10))
        for e in doctored.entries
    ]
    doctored_path = os.path.join(tmp_path, "BENCH_doctored.json")
    write_bench(doctored_path, doctored)
    assert main(args + ["--label", "gate", "--baseline", doctored_path]) == 1


def test_cli_bench_rejects_unknown_workload(tmp_path) -> None:
    with pytest.raises(SystemExit):
        main(
            [
                "bench",
                "--workloads",
                "no-such-workload",
                "--output-dir",
                str(tmp_path),
            ]
        )
