"""Tests for the benchmark harness and metrics."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    ALGORITHM_KEYS,
    make_adapter,
    run_protocol,
)
from repro.bench.metrics import error_stats
from repro.graphs.generators import barabasi_albert
from repro.registry import algorithm_spec

EDGES = barabasi_albert(100, 3, seed=1)


class TestErrorStats:
    def test_perfect_estimates(self):
        stats = error_stats({1: 3.0, 2: 5.0}, {1: 3, 2: 5})
        assert stats.average == 1.0
        assert stats.maximum == 1.0
        assert stats.vertices_measured == 2

    def test_overestimate_and_underestimate_symmetric(self):
        assert error_stats({1: 6.0}, {1: 3}).maximum == 2.0
        assert error_stats({1: 1.5}, {1: 3}).maximum == 2.0

    def test_zero_core_skipped(self):
        stats = error_stats({1: 0.0}, {1: 0})
        assert stats.vertices_measured == 0

    def test_missing_estimate_is_infinite(self):
        stats = error_stats({}, {1: 2})
        assert stats.maximum == float("inf")

    def test_empty(self):
        stats = error_stats({}, {})
        assert stats.average == 1.0


class TestAdapters:
    @pytest.mark.parametrize("key", ALGORITHM_KEYS)
    def test_adapter_roundtrip(self, key):
        adapter = make_adapter(key, n_hint=110)
        adapter.initialize(EDGES[:100])
        from repro.graphs.streams import Batch

        adapter.update(Batch(insertions=EDGES[100:150]))
        est = adapter.estimates()
        assert est
        assert adapter.cost.work > 0
        assert adapter.space_bytes() > 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            make_adapter("nope", n_hint=10)

    def test_exact_flags(self):
        assert algorithm_spec("zhang").exact
        assert algorithm_spec("exactkcore").exact
        assert not algorithm_spec("plds").exact
        assert not algorithm_spec("approxkcore").exact

    @pytest.mark.parametrize("key", ["exactkcore", "approxkcore"])
    def test_static_rerun_adapters(self, key):
        from repro.graphs.streams import Batch

        adapter = make_adapter(key, n_hint=110)
        adapter.initialize(EDGES[:100])
        work_after_init = adapter.cost.work
        adapter.update(Batch(insertions=EDGES[100:150], deletions=EDGES[:20]))
        assert adapter.cost.work > work_after_init  # full recompute charged
        est = adapter.estimates()
        assert est
        if key == "exactkcore":
            from repro.static_kcore.exact import exact_coreness

            expected = exact_coreness(EDGES[20:150])
            assert est == {v: float(k) for v, k in expected.items()}


class TestRunProtocol:
    def test_ins_protocol(self):
        res = run_protocol(
            lambda: make_adapter("pldsopt", 110), EDGES, "ins", batch_size=60
        )
        assert res.protocol == "ins"
        assert len(res.batches) == -(-len(EDGES) // 60)
        assert res.errors is not None
        assert res.errors.maximum < float("inf")

    def test_del_protocol_empties_graph(self):
        res = run_protocol(
            lambda: make_adapter("pldsopt", 110), EDGES, "del", batch_size=60
        )
        assert sum(b.batch_size for b in res.batches) == len(EDGES)

    def test_mix_protocol_single_batch(self):
        res = run_protocol(
            lambda: make_adapter("pldsopt", 110), EDGES, "mix", batch_size=40
        )
        assert len(res.batches) == 1
        assert res.errors is not None

    def test_exact_algorithm_has_unit_error(self):
        res = run_protocol(
            lambda: make_adapter("zhang", 110), EDGES, "ins", batch_size=100
        )
        assert res.errors.maximum == 1.0

    def test_max_batches_truncation(self):
        res = run_protocol(
            lambda: make_adapter("pldsopt", 110),
            EDGES,
            "ins",
            batch_size=50,
            max_batches=2,
        )
        assert len(res.batches) == 2
        assert res.errors is not None

    def test_avg_properties(self):
        res = run_protocol(
            lambda: make_adapter("pldsopt", 110), EDGES, "ins", batch_size=60
        )
        assert res.avg_work > 0
        assert res.avg_depth > 0
        assert res.avg_wall >= 0
        assert res.total_cost.work == sum(b.work for b in res.batches)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            run_protocol(
                lambda: make_adapter("pldsopt", 110), EDGES, "nope", 10
            )

    def test_measure_error_against_override(self):
        # errors measured against a caller-provided reference graph
        res = run_protocol(
            lambda: make_adapter("zhang", 110),
            EDGES,
            "ins",
            batch_size=len(EDGES),
            measure_error_against=EDGES,
        )
        assert res.errors.maximum == 1.0

    def test_del_protocol_reports_halfway_errors(self):
        res = run_protocol(
            lambda: make_adapter("zhang", 110), EDGES, "del", batch_size=60
        )
        # exact algorithm: halfway snapshot against halfway graph is exact
        assert res.errors is not None
        assert res.errors.maximum == 1.0
