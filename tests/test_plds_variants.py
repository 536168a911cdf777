"""Tests for the PLDS strategy and structure variants (Sections 5.8/6.1)."""

from __future__ import annotations

import random

import pytest

from repro.core.invariants import approximation_violations
from repro.core.orientation import is_acyclic_orientation
from repro.core.plds import PLDS
from repro.graphs.generators import barabasi_albert, erdos_renyi, ring_of_cliques
from repro.graphs.streams import Batch
from repro.static_kcore.exact import exact_coreness

from .conftest import assert_no_violations, build_plds
from .test_golden_parity import _N_HINT, _stream

EDGES = erdos_renyi(120, 500, seed=21)

#: constructor kwargs per configuration on the golden-parity stream.
STREAM_CONFIGS: dict[str, dict] = {
    "levelwise": {},
    "jump": {"insertion_strategy": "jump"},
    "opt": {"group_shrink": 50, "insertion_strategy": "jump"},
    "opt-levelwise": {"group_shrink": 50},
    "orient-det": {"track_orientation": True, "structure": "deterministic"},
    "space": {"structure": "space_efficient"},
}

#: every config on the default seed; the group-shrink and jump-rise
#: configs also on seeds 7 and 99.
STREAM_CASES = [pytest.param(c, 1234, id=c) for c in sorted(STREAM_CONFIGS)] + [
    pytest.param(c, seed, id=f"{c}-{seed}")
    for c in ("jump", "opt", "opt-levelwise")
    for seed in (7, 99)
]


class TestJumpInsertionStrategy:
    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            PLDS(n_hint=10, insertion_strategy="teleport")

    @pytest.mark.parametrize("batch_size", [1, 32, 500])
    def test_invariants_hold(self, batch_size):
        plds = build_plds(
            EDGES, batch_size=batch_size, insertion_strategy="jump"
        )
        assert_no_violations(plds, f"jump bs={batch_size}")

    def test_approximation_preserved(self):
        plds = build_plds(EDGES, insertion_strategy="jump")
        exact = exact_coreness(EDGES)
        assert not approximation_violations(
            plds.coreness_estimates(), exact, plds.approximation_factor()
        )

    def test_mixed_churn(self):
        rng = random.Random(4)
        plds = PLDS(n_hint=130, insertion_strategy="jump", track_orientation=True)
        current: set = set()
        for step in range(20):
            avail = [e for e in EDGES if e not in current]
            ins = rng.sample(avail, min(25, len(avail)))
            dels = rng.sample(sorted(current), min(12, len(current)))
            plds.update(Batch(insertions=ins, deletions=dels))
            current |= set(ins)
            current -= set(dels)
            assert_no_violations(plds, f"jump churn {step}")
        assert is_acyclic_orientation(list(plds.oriented_edges()))

    def test_jump_moves_multiple_levels_at_once(self):
        # A clique inserted in one batch makes vertices climb many levels;
        # the jump strategy must do so in single moves.
        clique = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        jump = PLDS(n_hint=20, insertion_strategy="jump")
        jump.update(Batch(insertions=clique))
        level = PLDS(n_hint=20)
        level.update(Batch(insertions=clique))
        assert_no_violations(jump)
        # Both land vertices high enough for the same estimates.
        assert jump.coreness_estimates() == level.coreness_estimates()

    def test_jump_never_much_more_work(self):
        # The optimization's point: direct moves avoid re-touching the
        # up-neighborhood at every intermediate level, so jump does at
        # most comparable — usually much less — work than level-by-level.
        edges = barabasi_albert(300, 6, seed=5)
        jump = build_plds(edges, insertion_strategy="jump")
        levelwise = build_plds(edges)
        assert jump.tracker.work <= 1.5 * levelwise.tracker.work


class TestMixedStreamMatrix:
    @pytest.mark.parametrize("config,seed", STREAM_CASES)
    def test_invariants_and_approximation(self, config: str, seed: int) -> None:
        plds = PLDS(n_hint=_N_HINT, **STREAM_CONFIGS[config])
        live: set = set()
        for i, batch in enumerate(_stream(seed=seed)):
            plds.update(batch)
            live |= set(batch.insertions)
            live -= set(batch.deletions)
            assert_no_violations(plds, f"{config} seed={seed} batch {i}")
        assert not approximation_violations(
            plds.coreness_estimates(),
            exact_coreness(live),
            plds.approximation_factor(),
        )


class TestStructureVariants:
    def test_invalid_structure_rejected(self):
        with pytest.raises(ValueError):
            PLDS(n_hint=10, structure="quantum")

    @pytest.mark.parametrize(
        "structure", ["randomized", "deterministic", "space_efficient"]
    )
    def test_each_variant_correct(self, structure):
        plds = build_plds(EDGES, structure=structure)
        assert_no_violations(plds, structure)
        exact = exact_coreness(EDGES)
        assert not approximation_violations(
            plds.coreness_estimates(), exact, plds.approximation_factor()
        )

    def test_identical_results_across_variants(self):
        results = []
        for structure in ("randomized", "deterministic", "space_efficient"):
            plds = build_plds(EDGES, structure=structure, shuffle_seed=9)
            results.append(plds.coreness_estimates())
        assert results[0] == results[1] == results[2]

    def test_work_identical_depth_ordered(self):
        costs = {}
        for structure in ("randomized", "deterministic", "space_efficient"):
            plds = build_plds(EDGES, structure=structure, shuffle_seed=9)
            costs[structure] = plds.tracker.cost
        assert (
            costs["randomized"].work
            == costs["deterministic"].work
            == costs["space_efficient"].work
        )
        assert (
            costs["randomized"].depth
            <= costs["deterministic"].depth
            <= costs["space_efficient"].depth
        )

    def test_space_efficient_saves_space(self):
        big = ring_of_cliques(10, 8)
        default = build_plds(big)
        compact = build_plds(big, structure="space_efficient")
        assert compact.space_bytes() < default.space_bytes()

    def test_variant_survives_rebuild(self):
        plds = PLDS(n_hint=4, structure="space_efficient", insertion_strategy="jump")
        plds.update(Batch(insertions=erdos_renyi(40, 100, seed=3)))
        assert plds.structure == "space_efficient"
        assert plds.insertion_strategy == "jump"
        assert_no_violations(plds)
