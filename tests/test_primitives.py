"""Unit tests for the metered parallel primitives."""

from __future__ import annotations

import pytest

from repro.parallel.primitives import log2_ceil, parallel_semisort


class TestLog2Ceil:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (1024, 10)],
    )
    def test_values(self, n, expected):
        assert log2_ceil(n) == expected


class TestSemisort:
    def test_groups_by_key(self, tracker):
        out = parallel_semisort(tracker, [("a", 1), ("b", 2), ("a", 3)])
        assert out == {"a": [1, 3], "b": [2]}

    def test_value_order_preserved_within_group(self, tracker):
        out = parallel_semisort(tracker, [(0, i) for i in range(5)])
        assert out[0] == [0, 1, 2, 3, 4]

    def test_empty(self, tracker):
        assert parallel_semisort(tracker, []) == {}

    def test_charges_linear(self, tracker):
        parallel_semisort(tracker, [(i % 3, i) for i in range(32)])
        assert tracker.work == 32
