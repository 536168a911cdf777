"""PLDSFlat: the flat slot-indexed layout is observationally bit-identical.

The contract (docs/cost_model.md, "Flat-layout memory model"): on any
update stream and at any parameterization, :class:`repro.core.plds_flat.
PLDSFlat` produces the same coreness estimates AND the same metered
(work, depth) totals as the record-based :class:`repro.core.plds.PLDS`
— the layout change is purely a constant-factor/wall-clock matter.
These tests drive both engines through the golden-parity stream across
the structure/strategy matrix (the group-shrink and jump-rise configs
over three stream seeds), and additionally check agreement with
the sharded coordinator at 1/2/4/7 shards (which is itself gated
bit-identical to the record engine by tests/test_shard.py).
"""

from __future__ import annotations

import pytest

from repro.core.plds import PLDS
from repro.core.plds_flat import PLDSFlat
from repro.registry import make_adapter
from repro.shard import Coordinator

from .test_golden_parity import _N_HINT, _stream

#: constructor kwargs per scenario; both engines take identical params.
CONFIGS: dict[str, dict] = {
    "levelwise": {},
    "jump": {"insertion_strategy": "jump"},
    "opt": {"group_shrink": 50, "insertion_strategy": "jump"},
    "opt-levelwise": {"group_shrink": 50},
    "orient-det": {"track_orientation": True, "structure": "deterministic"},
    "space": {"structure": "space_efficient"},
}

#: stream seeds; the first is the golden-parity default.
SEEDS = (1234, 7, 99)

#: configs also run on the non-default seeds: the group-shrink and
#: jump-rise variants.
SEEDED_CONFIGS = ("jump", "opt", "opt-levelwise")

#: (config, seed) cases; default-seed cases keep the bare config id.
PARITY_CASES = [pytest.param(c, SEEDS[0], id=c) for c in sorted(CONFIGS)] + [
    pytest.param(c, seed, id=f"{c}-{seed}")
    for c in SEEDED_CONFIGS
    for seed in SEEDS[1:]
]


def _run_pair(
    n_hint: int, seed: int = SEEDS[0], **kwargs
) -> tuple[PLDS, PLDSFlat]:
    rec = PLDS(n_hint=n_hint, **kwargs)
    flat = PLDSFlat(n_hint=n_hint, **kwargs)
    for batch in _stream(seed=seed):
        rec.update(batch)
        flat.update(batch)
        assert (rec.tracker.work, rec.tracker.depth) == (
            flat.tracker.work,
            flat.tracker.depth,
        ), "metered totals diverged mid-stream"
    return rec, flat


class TestFlatParity:
    @pytest.mark.parametrize("config,seed", PARITY_CASES)
    def test_bit_identical_to_plds(self, config: str, seed: int) -> None:
        rec, flat = _run_pair(_N_HINT, seed=seed, **CONFIGS[config])
        assert flat.coreness_estimates() == rec.coreness_estimates()
        assert {v: flat.level(v) for v in flat.vertices()} == {
            v: rec.level(v) for v in rec.vertices()
        }
        assert flat.check_invariants() == []

    def test_rebuild_parity(self) -> None:
        # An undersized hint forces mid-stream rebuilds through the flat
        # slot recycling path.
        rec, flat = _run_pair(32)
        assert flat.coreness_estimates() == rec.coreness_estimates()
        assert flat.check_invariants() == []

    def test_query_surface_matches(self) -> None:
        rec, flat = _run_pair(_N_HINT)
        assert flat.num_vertices == rec.num_vertices
        assert sorted(flat.edges()) == sorted(rec.edges())
        for v in rec.vertices():
            assert flat.degree(v) == rec.degree(v)
            assert flat.up_degree(v) == rec.up_degree(v)
            assert flat.up_star_degree(v) == rec.up_star_degree(v)
            assert flat.neighbors(v) == rec.neighbors(v)
            assert flat.out_neighbors(v) == rec.out_neighbors(v)
            assert flat.out_degree(v) == rec.out_degree(v)
            assert flat.in_neighbors(v) == rec.in_neighbors(v)
        for u, v in list(rec.edges())[:50]:
            assert flat.has_edge(u, v) and flat.has_edge(v, u)
        assert not flat.has_edge(10**6, 0)

    def test_snapshot_roundtrip(self) -> None:
        _, flat = _run_pair(_N_HINT)
        clone = PLDSFlat.from_snapshot(flat.to_snapshot())
        assert clone.coreness_estimates() == flat.coreness_estimates()
        assert sorted(clone.edges()) == sorted(flat.edges())
        assert clone.check_invariants() == []

    def test_vertex_deletion_compacts_slots(self) -> None:
        flat = PLDSFlat(n_hint=_N_HINT)
        rec = PLDS(n_hint=_N_HINT)
        batches = _stream()
        for b in batches[:4]:
            flat.update(b)
            rec.update(b)
        victims = sorted(flat.vertices())[::7]
        flat.delete_vertices(victims)
        rec.delete_vertices(victims)
        assert flat.coreness_estimates() == rec.coreness_estimates()
        assert flat.check_invariants() == []
        # Slots stay dense after the swap-compaction.
        assert sorted(flat._slot_of.values()) == list(range(flat.num_vertices))

    def test_space_accounting_positive(self) -> None:
        _, flat = _run_pair(_N_HINT)
        assert flat.space_bytes() > 0
        assert flat.stats()["space_bytes"] == float(flat.space_bytes())


class TestFlatVsSharded:
    @pytest.mark.parametrize("shards", (1, 2, 4, 7))
    def test_coreness_agreement(self, shards: int) -> None:
        flat = PLDSFlat(n_hint=_N_HINT)
        coord = Coordinator(_N_HINT, shards=shards)
        for batch in _stream():
            flat.update(batch)
            coord.update(batch)
        assert flat.coreness_estimates() == coord.coreness_estimates(), (
            f"flat vs {shards}-shard coordinator coreness diverged"
        )


class TestFlatRegistry:
    @pytest.mark.parametrize(
        "flat_key,record_key",
        [("pldsflat", "plds"), ("pldsflatopt", "pldsopt")],
    )
    def test_registry_twins_match(self, flat_key: str, record_key: str) -> None:
        fa = make_adapter(flat_key, _N_HINT)
        ra = make_adapter(record_key, _N_HINT)
        for batch in _stream():
            fa.update(batch)
            ra.update(batch)
        assert fa.estimates() == ra.estimates()
        assert (fa.cost.work, fa.cost.depth) == (ra.cost.work, ra.cost.depth)
