"""Paired A/B comparison of the working tree against a base commit.

Usage::

    python perf/ab.py --base HEAD~1 [--pairs 10] [--seed 7] [--workload NAME ...]

The base commit's ``src/`` is extracted with ``git archive`` into
``perf/out/ab-<sha>/`` and the working tree's ``perf/run.py`` runs against
both source trees, so the benchmark code is identical on the two sides.
Each pair runs base and head in fresh processes, alternating which side
goes first.  For every end-to-end metric of ``BENCHMARK.json`` and every
workload the report gives each side's median and quartiles, the fraction
of pairs the head won (ties count for neither side) and a verdict:

- ``improved``: over at least 10 pairs, the head won at least 9 of every 10
  and the medians differ, in the better direction, by more than the base's
  quartile spread;
- ``unresolved``: the quartile spread of either side, as a share of the
  base median, exceeds the metric's bound, and not every head run beat
  every base run;
- ``regressed``: the head median is worse than the base median by more
  than the bound;
- ``unchanged``: none of the above.

The exit code is 1 when a run fails or a row regressed, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

from run import HERE, ROOT, fail, load_spec


def extract_base(ref: str) -> tuple[str, Path]:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"--base {ref}: not a commit of this repository")
    sha = proc.stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha, "src"],
                             capture_output=True, check=True)
    dest = HERE / "out" / f"ab-{sha[:12]}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return sha, dest


def run_side(src: Path, workload: str, args: argparse.Namespace) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
           "--scale", repr(args.scale), "--src", str(src)]
    if args.seconds is not None:
        cmd += ["--seconds", repr(args.seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])["metrics"]


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    share = wins / len(base)
    mb, mh = statistics.median(base), statistics.median(head)
    gain = sign * (mh - mb)
    if len(base) >= 10 and share >= 0.9 and gain > spread(base):
        return "improved", share
    head_beats_all = min(sign * h for h in head) > max(sign * b for b in base)
    if max(spread(base), spread(head)) > bound * abs(mb) and not head_beats_all:
        return "unresolved", share
    if -gain > bound * abs(mb):
        return "regressed", share
    return "unchanged", share


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", help="compare only this workload (repeatable)")
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    for name in args.workload or ():
        if name not in known:
            fail(f"unknown workload {name!r}; choose from {', '.join(known)}")
    if args.pairs < 2:
        fail("--pairs must be at least 2 to give quartiles")
    sha, base_dir = extract_base(args.base)
    sides = {"base": base_dir / "src", "head": ROOT / "src"}
    workloads = args.workload or known

    values: dict[tuple[str, str, str], list[float]] = {}
    failures = 0
    try:
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for workload in workloads:
                runs = {side: run_side(sides[side], workload, args) for side in order}
                if None in runs.values():
                    failures += 1
                    print(f"pair {i + 1} {workload}: a run failed", file=sys.stderr)
                    continue
                for side, metrics in runs.items():
                    for name, m in metrics.items():
                        values.setdefault((workload, name, side), []).append(m["value"])
                print(f"pair {i + 1}/{args.pairs} {workload} done", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)

    print(f"base {sha[:12]} vs working tree, seed {args.seed}, {args.pairs} pairs")
    print(f"{'workload':20s} {'metric':22s} {'base q1/med/q3':>36s} {'head q1/med/q3':>36s} {'wins':>5s} verdict")
    regressed = 0
    for workload in workloads:
        for m in spec["end_to_end"]:
            base = values.get((workload, m["name"], "base"), [])
            head = values.get((workload, m["name"], "head"), [])
            if len(base) < 2 or len(base) != len(head):
                continue
            word, share = verdict(base, head, m["better"], m["bound"])
            regressed += word == "regressed"
            qb, qh = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
            print(f"{workload:20s} {m['name']:22s} "
                  f"{qb[0]:11.5g}/{statistics.median(base):11.5g}/{qb[2]:11.5g} "
                  f"{qh[0]:11.5g}/{statistics.median(head):11.5g}/{qh[2]:11.5g} "
                  f"{share:5.2f} {word}")
    return 1 if failures or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
