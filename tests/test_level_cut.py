"""Threshold queries answered by one level cut equal the float filters.

``QueryView.level_cut`` inverts Definition 5.11, so ``core_members``,
``densest_estimate``, ``approx_k_core_candidates`` and
``CoreService.core_members`` compare levels instead of estimates.  This
property drives every level-structure engine through random
insert/delete streams and checks each answer against the float
definition it replaces, at every threshold where an off-by-one in the
cut would show: each ``(1+δ)^e`` of the power table exactly, its two
float neighbours, zero, negatives, the infinities and NaN.  Point reads
(``coreness``) take the one-record Definition-5.11 path.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plds import PLDS
from repro.graphs.streams import Batch
from repro.registry import make_adapter
from repro.service import CoreService
from repro.shard import Coordinator
from repro.static_kcore.subgraphs import approx_k_core_candidates

pytestmark = pytest.mark.query

_N = 14

_ENGINES = [
    pytest.param("plds", {}, id="plds"),
    pytest.param("pldsopt", {}, id="pldsopt"),
    pytest.param("lds", {}, id="lds"),
] + [
    pytest.param(
        "plds-sharded",
        {"shards": shards, "partition": partition},
        id=f"plds-sharded-{shards}-{partition}",
        marks=pytest.mark.shard,
    )
    for shards in (1, 4)
    for partition in ("hash", "degree")
]

_pair = st.tuples(st.integers(0, _N - 1), st.integers(0, _N - 1))
#: A clique size, extra first-batch pairs, then toggle batches: absent
#: edges are inserted, present ones deleted.  The first batch loads a
#: clique on the lowest ids so that groups above 0 occupy.
_streams = st.tuples(
    st.integers(0, _N),
    st.lists(_pair, max_size=30),
    st.lists(st.lists(_pair, max_size=12), min_size=1, max_size=6),
)


def _batches(stream) -> list[Batch]:
    clique, extra, rest = stream
    first = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    live: set[tuple[int, int]] = set()
    out = []
    for pairs in [first + extra, *rest]:
        ins: dict[tuple[int, int], None] = {}
        dels: dict[tuple[int, int], None] = {}
        for u, v in pairs:
            if u != v:
                e = (min(u, v), max(u, v))
                (dels if e in live else ins)[e] = None
        live |= set(ins)
        live -= set(dels)
        out.append(Batch(insertions=list(ins), deletions=list(dels)))
    return out


def _thresholds(pow_table: list[float]) -> list[float]:
    ks = [0, 0.0, -0.0, -1, -2.5, math.inf, -math.inf, math.nan, 0.5, 1]
    for p in pow_table:
        ks += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
    return ks


def _members_oracle(estimates: dict[int, float], k: float) -> set[int]:
    return {v for v, c in estimates.items() if c >= k}


def _densest_oracle(estimates: dict[int, float]) -> tuple[float, set[int]]:
    best = max(estimates.values(), default=0.0)
    if best == 0.0:
        return 0.0, set()
    return best / 2.0, {v for v, c in estimates.items() if c == best}


def _candidates_oracle(plds: PLDS, k: float) -> set[int]:
    """The per-vertex Lemma-5.13 filter the level cut replaced."""
    if k <= 0:
        raise ValueError("k must be positive")
    threshold = k / plds.approximation_factor()
    return {
        v
        for v in plds.vertices()
        if plds.coreness_estimate(v) >= threshold - 1e-12
    }


def _service_oracle(svc: CoreService, k: float) -> set[int]:
    """``CoreService.core_members`` as it was before the level cut."""
    impl = svc.engine
    if isinstance(impl, PLDS) and k > 0:
        return _candidates_oracle(impl, k)
    return _members_oracle(svc.coreness_map(), k)


@pytest.mark.parametrize("key, kwargs", _ENGINES)
@settings(max_examples=25, deadline=None)
@given(stream=_streams)
def test_level_cut_answers_equal_float_filters(key, kwargs, stream):
    batches = _batches(stream)
    adapter = make_adapter(key, _N, **kwargs)
    adapter.initialize(batches[0].insertions)
    svc = CoreService(key, n_hint=_N, **kwargs)
    svc.apply_batch(batches[0])
    for batch in batches[1:]:
        adapter.update(batch)
        svc.apply_batch(batch)
        impl = adapter.impl
        estimates = impl.coreness_estimates()
        pow_table = impl._group_pow
        for k in _thresholds(pow_table):
            assert impl.core_members(k) == _members_oracle(estimates, k), k
            assert svc.core_members(k) == _service_oracle(svc, k), k
            if isinstance(impl, PLDS):
                try:
                    expected = _candidates_oracle(impl, k)
                except ValueError:
                    with pytest.raises(ValueError):
                        approx_k_core_candidates(impl, k)
                else:
                    assert approx_k_core_candidates(impl, k) == expected, k
        assert impl.densest_estimate() == _densest_oracle(estimates)


def test_cut_edge_cases():
    plds = PLDS(n_hint=_N)
    plds.update(Batch(insertions=[(0, 1), (1, 2), (2, 0), (3, 4)]))
    plds.update(Batch(deletions=[(3, 4)]))  # 3 and 4 keep degree-0 records
    lpg = plds.levels_per_group
    top = plds._group_pow
    assert plds.level_cut(0) == plds.level_cut(-math.inf) == -1
    assert plds.core_members(0) == {0, 1, 2, 3, 4}
    assert plds.level_cut(1.0) == plds.level_cut(1e-300) == 0
    assert plds.core_members(1.0) == {0, 1, 2}
    assert plds.level_cut(top[1]) == 2 * lpg - 1
    assert plds.level_cut(math.nextafter(top[1], math.inf)) == 3 * lpg - 1
    assert plds.level_cut(math.nan) is None
    assert plds.level_cut(math.inf) is None
    assert plds.level_cut(math.nextafter(top[-1], math.inf)) is None
    assert plds.core_members(math.nan) == set()


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: PLDS(n_hint=_N), id="plds"),
        pytest.param(
            lambda: Coordinator(_N, shards=2),
            id="plds-sharded",
            marks=pytest.mark.shard,
        ),
    ],
)
def test_point_coreness_reads_one_record(monkeypatch, make):
    engine = make()
    engine.update(Batch(insertions=[(0, 1), (1, 2), (2, 0), (3, 4)]))
    engine.update(Batch(deletions=[(3, 4)]))
    expected = engine.coreness_estimates()

    def sweep():
        raise AssertionError("a point read walked every record")

    monkeypatch.setattr(engine, "_records", sweep)
    assert {v: engine.coreness(v) for v in expected} == expected
    assert expected[0] > 0.0 and expected[3] == 0.0
    assert engine.coreness(99) == 0.0
