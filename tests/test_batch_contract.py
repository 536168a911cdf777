"""One batch contract across every entry point.

The Section-8 batch assumptions (unique, valid updates; Algorithm 1's
precondition) are checked by :func:`repro.graphs.streams.check_batch`
and nowhere else.  Every entry — the single-structure engines, the
sharded coordinator and the serving layer — must therefore accept and
reject exactly the same batches with exactly the same message, and a
rejected batch must leave no trace.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lds import LDS
from repro.core.plds import PLDS
from repro.graphs.generators import erdos_renyi
from repro.graphs.streams import Batch, UpdateJournal, check_batch
from repro.obs.metrics import MetricsRegistry, collecting
from repro.registry import algorithm_keys
from repro.service import CoreService
from repro.shard import Coordinator

_N_HINT = 16
#: Present at the start of every example (ids 0..9).
_BASE = erdos_renyi(10, 18, seed=4)
#: Absent at the start, two with ids the base graph lacks.
_ABSENT = [(0, 11), (10, 11)] + [
    (a, b) for a in range(10) for b in range(a + 1, 10) if (a, b) not in _BASE
][:4]
#: Always rejected: self-loops and negative ids.
_BAD = [(5, 5), (12, 12), (-1, 3), (-2, -1)]


def _pairs(likely: list[tuple[int, int]]) -> st.SearchStrategy:
    """Mostly ``likely`` pairs (so duplicates and overlaps are common),
    else any pool pair or any pair of ids in -2..12, either way round."""
    return st.one_of(
        st.sampled_from(likely),
        st.sampled_from(likely),
        st.sampled_from(_BASE + _ABSENT + _BAD),
        st.tuples(st.integers(-2, 12), st.integers(-2, 12)),
    ).flatmap(lambda e: st.sampled_from([e, (e[1], e[0])]))


_batches = st.builds(
    lambda ins, dels: Batch(insertions=ins, deletions=dels),
    st.lists(_pairs(_ABSENT), max_size=4),
    st.lists(_pairs(_BASE + _ABSENT[:2]), max_size=4),  # some overlap
)

_shard = pytest.mark.shard
_ENTRIES = [
    pytest.param(lambda: PLDS(n_hint=_N_HINT), id="plds"),
    pytest.param(lambda: PLDS(n_hint=_N_HINT, group_shrink=50), id="plds-shrink"),
    pytest.param(lambda: LDS(n_hint=_N_HINT), id="lds"),
    pytest.param(lambda: Coordinator(_N_HINT, shards=1), id="coord-1", marks=_shard),
    pytest.param(lambda: Coordinator(_N_HINT, shards=4), id="coord-4", marks=_shard),
    pytest.param(lambda: CoreService("pldsopt", n_hint=_N_HINT), id="svc-pldsopt"),
    pytest.param(
        lambda: CoreService("plds-sharded", n_hint=_N_HINT),
        id="svc-plds-sharded",
        marks=_shard,
    ),
    pytest.param(lambda: CoreService("sun", n_hint=_N_HINT), id="svc-sun"),
]

#: First loads: a fresh structure's bootstrap entry, which must decide
#: exactly like a fresh PLDS's first insertion batch.  The degree
#: partition computes its assignment here, before any shard holds state.
_FIRST_LOADS = [
    pytest.param(
        lambda: Coordinator(_N_HINT, shards=2), id="coord-2-init", marks=_shard
    ),
    pytest.param(
        lambda: Coordinator(_N_HINT, shards=2, partition="degree"),
        id="coord-2-degree-init",
        marks=_shard,
    ),
]


def _load(entry) -> None:
    if isinstance(entry, CoreService):
        entry.apply_batch(Batch(insertions=list(_BASE)))
    else:
        entry.update(Batch(insertions=list(_BASE)))


def _apply(entry, batch: Batch) -> str | None:
    """The entry's decision: ``None`` (accepted) or the rejection message."""
    try:
        if isinstance(entry, CoreService):
            entry.apply_batch(batch)
        else:
            entry.update(batch)
    except ValueError as exc:
        return str(exc)
    return None


def _state(entry) -> tuple:
    if isinstance(entry, CoreService):
        return (
            set(entry._edges),
            len(entry.journal),
            entry.total_cost,
            entry.batches_applied,
            entry.coreness_map(),
        )
    return (entry.to_snapshot(), sorted(entry.edges()))


def _edge_set(entry) -> set[tuple[int, int]]:
    if isinstance(entry, CoreService):
        return set(entry._edges)
    return set(entry.edges())


class TestOneContract:
    @pytest.mark.parametrize("make", _ENTRIES)
    @settings(max_examples=80, deadline=None)
    @given(batch=_batches)
    def test_same_decision_and_no_trace_on_rejection(self, make, batch):
        reference = PLDS(n_hint=_N_HINT)
        entry = make()
        _load(reference)
        _load(entry)
        before = _state(entry)
        expected = _apply(reference, batch)
        assert _apply(entry, batch) == expected
        if expected is None:
            assert _edge_set(entry) == _edge_set(reference)
        else:
            assert _state(entry) == before

    @pytest.mark.parametrize("make", _FIRST_LOADS)
    @settings(max_examples=80, deadline=None)
    @given(edges=st.lists(_pairs(_BASE + _ABSENT), max_size=6))
    def test_same_decision_on_first_load(self, make, edges):
        reference = PLDS(n_hint=_N_HINT)
        entry = make()
        before = _state(entry)
        expected = _apply(reference, Batch(insertions=edges))
        try:
            entry.initialize(edges)
            decision = None
        except ValueError as exc:
            decision = str(exc)
        assert decision == expected
        if expected is None:
            assert _edge_set(entry) == _edge_set(reference)
        else:
            assert _state(entry) == before


def _reference_check(batch: Batch, present: set) -> tuple[list, list]:
    """The contract stated per edge: every rule, then one membership test,
    edge by edge in batch order (insertions, then deletions)."""
    ins: dict = {}
    dels: dict = {}
    for phase, seen, name in ((batch.insertions, ins, "insertion"),
                              (batch.deletions, dels, "deletion")):
        for u, v in phase:
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex id in {name} ({u},{v})")
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) in batch")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate {name} {e} in batch")
            if seen is dels and e in ins:
                raise ValueError(f"edge {e} both inserted and deleted in batch")
            if seen is ins and e in present:
                raise ValueError(f"insertion of existing edge {e}")
            if seen is dels and e not in present:
                raise ValueError(f"deletion of missing edge {e}")
            seen[e] = None
    return list(ins), list(dels)


def _outcome(check, batch: Batch) -> tuple:
    try:
        return ("ok", check(batch))
    except ValueError as exc:
        return ("rejected", str(exc))


def _batched(batch: Batch) -> tuple[list, list]:
    present = set(_BASE)
    ins, dels, _, _ = check_batch(
        batch, lambda edges: (sum(e in present for e in edges), None)
    )
    return list(ins), list(dels)


class TestFirstErrorOrder:
    """``check_batch`` looks membership up once per phase, yet must name
    the same first error as the per-edge statement of the contract."""

    @settings(max_examples=300, deadline=None)
    @given(batch=_batches)
    def test_matches_the_per_edge_reference(self, batch):
        expected = _outcome(lambda b: _reference_check(b, set(_BASE)), batch)
        assert _outcome(_batched, batch) == expected

    @pytest.mark.parametrize(
        "batch, message",
        [
            (Batch(insertions=[_BASE[0], (3, 3)]), "insertion of existing edge"),
            (Batch(insertions=[(3, 3), _BASE[0]]), "self-loop"),
            (Batch(deletions=[_ABSENT[2], (3, 3)]), "deletion of missing edge"),
            (Batch(deletions=[(3, 3), _ABSENT[2]]), "self-loop"),
            (Batch(deletions=[_BASE[0], (3, 3)]), "self-loop"),
        ],
        ids=["ins-present-then-loop", "ins-loop-then-present",
             "del-missing-then-loop", "del-loop-then-missing",
             "del-present-then-loop"],
    )
    def test_membership_and_structure_errors_in_batch_order(self, batch, message):
        reference = _outcome(lambda b: _reference_check(b, set(_BASE)), batch)
        assert reference[0] == "rejected" and reference[1].startswith(message)
        assert _outcome(_batched, batch) == reference
        plds = PLDS(n_hint=_N_HINT)
        _load(plds)
        assert _apply(plds, batch) == reference[1]


@pytest.mark.parametrize("key", algorithm_keys())
def test_every_registry_key_rejects_before_journaling(key):
    svc = CoreService(key, n_hint=_N_HINT)
    svc.apply_batch(Batch(insertions=[(0, 1), (1, 2)]))
    for bad in (
        Batch(insertions=[(2, 1)]),                  # present
        Batch(deletions=[(0, 2)]),                   # missing
        Batch(insertions=[(3, 4), (4, 3)]),          # duplicate
        Batch(insertions=[(5, 5)]),                  # self-loop
        Batch(deletions=[(1, -1)]),                  # negative id
    ):
        with pytest.raises(ValueError):
            svc.apply_batch(bad)
    assert len(svc.journal) == 1
    assert svc.num_edges == 2 and svc.audit() == []


@pytest.mark.shard
def test_sharded_service_rejects_self_loops():
    registry = MetricsRegistry()
    svc = CoreService("plds-sharded", n_hint=64)
    svc.apply_batch(Batch(insertions=erdos_renyi(40, 80, seed=2)))
    with collecting(registry), pytest.raises(ValueError, match=r"self-loop \(3,3\)"):
        svc.apply_batch(Batch(insertions=[(3, 3), (3, 41)]))
    assert svc.num_edges == svc.engine.num_edges == 80
    assert svc.audit() == []
    assert all(u != v for u, v in svc.reader().view.edges)
    assert registry.counter_value("service.rollbacks") == 0


def test_from_journal_names_the_record_that_breaks_the_contract():
    # A journal from a service that committed a self-loop (sharded
    # services once dropped them at the coordinator after journaling).
    journal = UpdateJournal.from_json_dict({
        "format": 1,
        "records": [
            {"seq": 1, "insertions": [[0, 1]], "deletions": [], "status": "committed"},
            {"seq": 2, "insertions": [[3, 3]], "deletions": [], "status": "aborted"},
            {"seq": 3, "insertions": [[1, 2], [3, 3]], "deletions": [],
             "status": "committed"},
        ],
    })
    with pytest.raises(ValueError, match=r"journal record seq 3 .*self-loop \(3,3\)"):
        CoreService.from_journal(journal, "plds-sharded", n_hint=_N_HINT)
