"""Golden parity: optimized hot paths match the pre-optimization reference.

The PR-1 hot-path rewrite (cached degrees, integer threshold tables,
aggregate charging, record-reference adjacency) must be *observationally
invisible*: on the same update stream, the structures must produce
bit-identical coreness estimates AND bit-identical metered (work, depth)
totals to the seed implementation.  The reference values were recorded
from the seed (see ``fixtures/golden_parity.json``); regenerate
deliberately — never to paper over a diff — with::

    PYTHONPATH=src python -m tests.test_golden_parity

One deliberate exception: the seed's sequential LDS popped its cascade
queue in CPython int-set order, an artifact of the set's full insertion
history that became irreproducible once adjacency sets started holding
records (which hash by address).  The LDS now feeds its queue in sorted
order — a canonical, run-to-run-deterministic tie-break.  On this stream
that shifted the ``lds`` entry's work/depth from the seed's 3380/6320 to
3382/6322 while leaving its coreness estimates bit-identical; every PLDS
entry still matches the seed exactly.

``plds-sharded`` (the scatter-gather :class:`~repro.shard.Coordinator`,
four shards, registry defaults) pins the sharded engine's metered
totals on the same stream.  Its coreness equals ``plds-levelwise``; its
work and depth differ because the shard rounds and ghost exchange are
charged too.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.core.lds import LDS
from repro.core.plds import PLDS
from repro.graphs.streams import Batch
from repro.shard import Coordinator

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_parity.json"
)

_N = 80
_N_HINT = 100


def _stream(seed: int = 1234, n: int = _N, rounds: int = 10, batch: int = 40):
    """Deterministic mixed stream: insert-heavy, then mixed, then delete-heavy."""
    rng = random.Random(seed)
    live: set[tuple[int, int]] = set()
    batches: list[Batch] = []
    for r in range(rounds):
        if r < 4:
            ins_target, del_target = batch, 0
        elif r < 7:
            ins_target, del_target = batch // 2, batch // 2
        else:
            ins_target, del_target = 5, batch
        ins: set[tuple[int, int]] = set()
        tries = 0
        while len(ins) < ins_target and tries < 20 * batch:
            u, w = rng.randrange(n), rng.randrange(n)
            tries += 1
            if u == w:
                continue
            e = (u, w) if u < w else (w, u)
            if e in live or e in ins:
                continue
            ins.add(e)
        avail = sorted(live)
        rng.shuffle(avail)
        dels = avail[: min(del_target, len(avail))]
        live |= ins
        live -= set(dels)
        batches.append(Batch(insertions=sorted(ins), deletions=sorted(dels)))
    return batches


def _scenarios() -> dict[str, object]:
    return {
        "plds-levelwise": lambda: PLDS(n_hint=_N_HINT),
        "plds-jump": lambda: PLDS(n_hint=_N_HINT, insertion_strategy="jump"),
        "pldsopt": lambda: PLDS(
            n_hint=_N_HINT, group_shrink=50, insertion_strategy="jump"
        ),
        "plds-orient-det": lambda: PLDS(
            n_hint=_N_HINT, track_orientation=True, structure="deterministic"
        ),
        "plds-space": lambda: PLDS(n_hint=_N_HINT, structure="space_efficient"),
        "plds-rebuild": lambda: PLDS(n_hint=32),
        "lds": lambda: LDS(n_hint=_N_HINT),
        "plds-sharded": lambda: Coordinator(_N_HINT, shards=4),
    }


def _run_scenario(name: str) -> dict:
    struct = _scenarios()[name]()
    for b in _stream():
        struct.update(b)
    return {
        "work": struct.tracker.work,
        "depth": struct.tracker.depth,
        "estimates": sorted(
            [v, est] for v, est in struct.coreness_estimates().items()
        ),
    }


def _load_fixture() -> dict:
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_golden_parity(name: str) -> None:
    reference = _load_fixture()[name]
    got = _run_scenario(name)
    assert got["work"] == reference["work"], (
        f"{name}: metered work changed: {reference['work']} -> {got['work']}"
    )
    assert got["depth"] == reference["depth"], (
        f"{name}: metered depth changed: {reference['depth']} -> {got['depth']}"
    )
    assert got["estimates"] == reference["estimates"], (
        f"{name}: coreness estimates diverged from the seed reference"
    )


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    data = {name: _run_scenario(name) for name in sorted(_scenarios())}
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
