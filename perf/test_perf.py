"""Self-test of the benchmark: ``pytest perf/``.

It stays outside the tier-1 ``testpaths``.  Every run is a small
``--scale 0.05`` smoke in a fresh process, as the benchmark is used.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC = ("work_per_update", "depth_per_batch", "coreness_error_p999",
                 "coreness_error_avg", "space_mb")
LAYER_SHARES = [m["name"] for m in SPEC["per_layer"]
                if m["name"].endswith("_frac") and m["name"] not in
                ("trace.unattributed_frac", "obs.overhead_frac")]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    cache: dict[tuple[str, int, int, int], dict] = {}

    def result(workload: str, seed: int, trace: int = 0, repeat: int = 0) -> dict:
        key = (workload, seed, trace, repeat)
        if key not in cache:
            proc = run("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                       "--scale", "0.05", "--trace", str(trace), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[key]

    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(smoke, workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(workload, 7, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_per_seed(smoke, workload):
    def det(result: dict) -> tuple:
        return tuple(result["metrics"][name]["value"] for name in DETERMINISTIC)

    first = det(smoke(workload, 7))
    assert det(smoke(workload, 7, repeat=1)) == first
    assert det(smoke(workload, 11)) != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_and_residual_reconcile_to_client_wall(smoke, workload):
    metrics = smoke(workload, 7, 1)["metrics"]
    named = sum(metrics[name]["value"] for name in LAYER_SHARES)
    assert all(metrics[name]["value"] >= 0.0 for name in LAYER_SHARES)
    assert named + metrics["trace.unattributed_frac"]["value"] == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("args", [
    ("--out", "{missing}"),
    ("--workload", "no-such-workload"),
])
def test_bad_arguments_exit_2_before_any_workload(args, tmp_path):
    proc = run("--seed", "7", *(a.format(missing=tmp_path / "missing") for a in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.match(r"^\S+\.py:\d+: error: ", proc.stderr)
