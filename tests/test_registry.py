"""Tests for the unified algorithm/application registry."""

from __future__ import annotations

import pytest

import repro.bench.harness as harness
from repro.graphs.generators import barabasi_albert
from repro.graphs.streams import Batch
from repro.registry import (
    AlgorithmSpec,
    ApplicationSpec,
    DynamicKCoreAdapter,
    algorithm_keys,
    algorithm_spec,
    application_keys,
    application_spec,
    make_adapter,
    make_application,
    register_algorithm,
    register_application,
)

EDGES = barabasi_albert(80, 3, seed=3)


class TestAlgorithmRegistry:
    def test_expected_keys_in_order(self):
        assert algorithm_keys() == (
            "plds", "pldsopt", "lds", "sun",
            "hua", "zhang", "exactkcore", "approxkcore", "plds-sharded",
        )
        assert algorithm_keys(dynamic=True) == (
            "plds", "pldsopt", "lds", "sun",
            "hua", "zhang", "plds-sharded"
        )
        assert algorithm_keys(parallel=False) == ("lds", "sun", "zhang")

    @pytest.mark.parametrize("key", algorithm_keys())
    def test_every_key_constructs_and_runs(self, key):
        adapter = make_adapter(key, n_hint=90)
        adapter.initialize(EDGES[:60])
        adapter.update(Batch(insertions=EDGES[60:90]))
        assert adapter.key == key
        assert adapter.estimates()
        assert adapter.cost.work > 0
        assert adapter.space_bytes() > 0

    @pytest.mark.parametrize("key", algorithm_keys())
    def test_metadata_consistency(self, key):
        spec = algorithm_spec(key)
        adapter = make_adapter(key, n_hint=10)
        assert adapter.is_exact == spec.exact
        assert spec.supports_deletions
        assert spec.metered
        if spec.snapshot:
            assert hasattr(adapter.impl, "to_snapshot")
        if spec.sharded:
            assert adapter.impl.num_shards >= 1

    def test_sharded_capability_metadata(self):
        spec = algorithm_spec("plds-sharded")
        assert spec.sharded
        assert not algorithm_spec("plds").sharded
        assert make_adapter("plds-sharded", n_hint=16, shards=2).impl.num_shards == 2

    def test_unknown_key_error_lists_valid_keys(self):
        with pytest.raises(ValueError, match="plds.*zhang"):
            algorithm_spec("nope")
        with pytest.raises(ValueError, match="unknown algorithm key 'nope'"):
            make_adapter("nope", n_hint=10)

    def test_duplicate_registration_rejected(self):
        spec = AlgorithmSpec(
            key="plds", summary="dup", exact=False, parallel=True,
            factory=lambda n, p: make_adapter("plds", n),
        )
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm(spec)

    def test_third_party_registration_round_trip(self):
        from repro import registry as reg

        spec = AlgorithmSpec(
            key="_test_only",
            summary="test stand-in",
            exact=False,
            parallel=True,
            factory=lambda n, p: make_adapter("plds", n),
        )
        register_algorithm(spec)
        try:
            assert "_test_only" in algorithm_keys()
            adapter = make_adapter("_test_only", n_hint=16)
            assert isinstance(adapter, DynamicKCoreAdapter)
        finally:
            del reg._ALGORITHMS["_test_only"]
        assert "_test_only" not in algorithm_keys()


class TestHarnessParity:
    """The harness's documented table and exported tuples mirror the registry."""

    def test_exported_tuples_derive_from_registry(self):
        assert harness.ALGORITHM_KEYS == algorithm_keys(dynamic=True)
        assert harness.ALL_KEYS == algorithm_keys()
        assert harness.SEQUENTIAL_KEYS == frozenset(algorithm_keys(parallel=False))

    def test_docstring_table_matches_capability_metadata(self):
        """Parse the Algorithms table in bench/harness.py's docstring and
        check each row's kind column against the registry metadata."""
        documented: dict[str, tuple[bool, bool]] = {}
        for line in (harness.__doc__ or "").splitlines():
            parts = line.split()
            if (
                len(parts) >= 3
                and parts[0] in algorithm_keys()
                and parts[-1] in ("exact", "approx")
                and parts[-2] in ("parallel", "sequential")
            ):
                documented[parts[0]] = (
                    parts[-2] == "parallel", parts[-1] == "exact"
                )
        assert set(documented) == set(algorithm_keys()), (
            "harness docstring table out of sync with registry keys"
        )
        for key, (parallel, exact) in documented.items():
            spec = algorithm_spec(key)
            assert spec.parallel == parallel, key
            assert spec.exact == exact, key

    def test_harness_make_adapter_is_registry_make_adapter(self):
        assert harness.make_adapter is make_adapter


class TestApplicationRegistry:
    def test_expected_keys(self):
        assert application_keys() == (
            "matching", "cliques", "clique-tables",
            "coloring-explicit", "coloring-implicit",
        )

    @pytest.mark.parametrize("key", application_keys())
    def test_every_application_constructs_and_updates(self, key):
        driver, app = make_application(key, n_hint=64)
        driver.update(Batch(insertions=[(0, 1), (1, 2), (0, 2), (3, 4)]))
        assert driver.plds.num_edges == 4
        assert app is driver.app

    def test_matching_behaviour_through_registry(self):
        driver, matching = make_application("matching", n_hint=32)
        driver.update(Batch(insertions=[(0, 1), (1, 2), (3, 4)]))
        assert sorted(matching.matching()) == [(0, 1), (3, 4)]

    def test_unknown_application_error_lists_valid_keys(self):
        with pytest.raises(ValueError, match="matching"):
            application_spec("nope")

    def test_duplicate_application_rejected(self):
        spec = ApplicationSpec(
            key="matching", summary="dup", factory=lambda n, **kw: (None, None)
        )
        with pytest.raises(ValueError, match="already registered"):
            register_application(spec)
