"""Hardening tests: odd inputs, determinism, and batch-validation atomicity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lds import LDS
from repro.core.plds import PLDS
from repro.framework import create_clique_driver, create_matching_driver
from repro.graphs.generators import erdos_renyi
from repro.graphs.streams import Batch

from .conftest import assert_no_violations, build_plds


class TestArbitraryVertexIds:
    def test_huge_sparse_ids(self):
        base = 10**12
        edges = [(base + 2 * i, base + 2 * i + 1) for i in range(20)]
        edges += [(base, base + 3), (base + 1, base + 2)]
        plds = PLDS(n_hint=64)
        plds.update(Batch(insertions=edges))
        assert_no_violations(plds)
        assert plds.coreness_estimate(base) >= 1

    def test_negative_ids(self):
        # Negative ids break the batch contract on every engine, as they
        # do at EdgeUpdate construction and at the service boundary.
        plds = build_plds([(0, 1)])
        before = plds.to_snapshot()
        with pytest.raises(ValueError, match=r"negative vertex id in insertion \(-2,7\)"):
            plds.update(Batch(insertions=[(2, 7), (-2, 7)]))
        assert plds.to_snapshot() == before

    def test_framework_with_sparse_ids(self):
        driver, m = create_matching_driver(n_hint=32)
        driver.update(Batch(insertions=[(1000, 2000), (2000, 3000)]))
        assert not m.violations()


class TestBatchValidationAtomicity:
    def test_invalid_batch_rejected_before_mutation(self):
        plds = build_plds([(0, 1), (1, 2)])
        snapshot = plds.to_snapshot()
        with pytest.raises(ValueError):
            plds.update(Batch(insertions=[(5, 6), (0, 1)]))  # (0,1) exists
        assert plds.to_snapshot() == snapshot  # nothing changed

    def test_duplicate_insertions_in_batch_rejected(self):
        plds = PLDS(n_hint=8)
        with pytest.raises(ValueError):
            plds.update(Batch(insertions=[(0, 1), (1, 0)]))

    def test_duplicate_deletions_in_batch_rejected(self):
        plds = build_plds([(0, 1)])
        with pytest.raises(ValueError):
            plds.update(Batch(deletions=[(0, 1), (1, 0)]))

    def test_insert_and_delete_same_edge_rejected(self):
        plds = PLDS(n_hint=8)
        with pytest.raises(ValueError):
            plds.update(Batch(insertions=[(0, 1)], deletions=[(0, 1)]))

    def test_delete_missing_rejected_before_mutation(self):
        plds = build_plds([(0, 1)])
        with pytest.raises(ValueError):
            plds.update(Batch(insertions=[(2, 3)], deletions=[(4, 5)]))
        assert not plds.has_edge(2, 3)  # insertion did not happen


#: K6 on 0..5 plus a pendant tree on 6..9: the clique rises above the
#: pendants, so some edges sit in a ``down`` slot (endpoints on
#: different levels).
_ATOMIC_BASE = [(a, b) for a in range(6) for b in range(a + 1, 6)] + [
    (0, 6), (1, 7), (2, 8), (6, 9),
]
_ATOMIC_ENGINES = {
    "plds": lambda: PLDS(n_hint=16),
    "pldsopt": lambda: PLDS(n_hint=16, group_shrink=50),
    "jump": lambda: PLDS(n_hint=16, insertion_strategy="jump"),
    "lds": lambda: LDS(n_hint=16),
}
#: Rejection branch -> the start of its ValueError message.
_REJECTIONS = {
    "self-loop": "self-loop",
    "dup-insert": "duplicate insertion",
    "dup-delete": "duplicate deletion",
    "insert-and-delete": "edge .* both inserted and deleted",
    "insert-existing": "insertion of existing edge",
    "insert-existing-down": "insertion of existing edge",
    "delete-missing": "deletion of missing edge",
    "delete-unseen": "deletion of missing edge",
    "negative-id": "negative vertex id",
}


class TestRejectionAtomicityProperty:
    """Every rejection branch raises before anything mutates, whatever
    valid updates share the batch."""

    @pytest.mark.parametrize("branch", sorted(_REJECTIONS))
    @pytest.mark.parametrize("kind", sorted(_ATOMIC_ENGINES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_rejected_batch_leaves_state_unchanged(self, kind, branch, data):
        engine = _ATOMIC_ENGINES[kind]()
        engine.update(Batch(insertions=_ATOMIC_BASE))
        existing = sorted(engine.edges())
        down = [e for e in existing if engine.level(e[0]) != engine.level(e[1])]
        assert down, "fixture must store some edge in a down slot"
        missing = [
            (a, b) for a in range(10) for b in range(a + 1, 10)
            if not engine.has_edge(a, b)
        ]
        unseen = [(3, 100), (100, 101)]
        fresh = missing + [(3, 50), (50, 51)]  # valid, some with new ids

        def turn(e):
            return data.draw(st.sampled_from([e, (e[1], e[0])]))

        pick = {
            "self-loop": [(v, v) for v in (0, 6, 9, 100)],
            "dup-insert": fresh,
            "dup-delete": existing,
            "insert-and-delete": fresh,
            "insert-existing": existing,
            "insert-existing-down": down,
            "delete-missing": missing,
            "delete-unseen": unseen,
            "negative-id": [(-7, 2), (0, -1), (-3, -4)],
        }[branch]
        bad = data.draw(st.sampled_from(pick))
        others = {bad, (bad[1], bad[0])}
        ins = data.draw(st.lists(st.sampled_from(fresh), unique=True, max_size=4))
        dels = data.draw(st.lists(st.sampled_from(existing), unique=True, max_size=4))
        ins = [turn(e) for e in ins if e not in others]
        dels = [turn(e) for e in dels if e not in others]
        if branch in ("self-loop", "insert-existing", "insert-existing-down"):
            ins.insert(data.draw(st.integers(0, len(ins))), turn(bad))
        elif branch == "dup-insert":
            ins += [turn(bad), turn(bad)]
        elif branch == "dup-delete":
            dels += [turn(bad), turn(bad)]
        elif branch == "insert-and-delete":
            ins.append(turn(bad))
            dels.insert(data.draw(st.integers(0, len(dels))), turn(bad))
        elif branch == "negative-id":
            side = ins if data.draw(st.booleans()) else dels
            side.insert(data.draw(st.integers(0, len(side))), turn(bad))
        else:  # deletion of a missing edge
            dels.insert(data.draw(st.integers(0, len(dels))), turn(bad))

        before = engine.to_snapshot()
        n_before = engine.num_vertices
        with pytest.raises(ValueError, match=_REJECTIONS[branch]):
            engine.update(Batch(insertions=ins, deletions=dels))
        assert engine.to_snapshot() == before
        assert engine.num_vertices == n_before


class TestDeterminism:
    def test_plds_fully_deterministic(self):
        edges = erdos_renyi(80, 320, seed=9)

        def run():
            plds = PLDS(n_hint=90, track_orientation=True)
            rng = random.Random(3)
            order = list(edges)
            rng.shuffle(order)
            for i in range(0, len(order), 37):
                plds.update(Batch(insertions=order[i : i + 37]))
            plds.update(Batch(deletions=order[:100]))
            return plds.to_snapshot()

        assert run() == run()

    def test_clique_counter_deterministic(self):
        edges = erdos_renyi(40, 160, seed=10)

        def run():
            driver, c = create_clique_driver(n_hint=50, k=3)
            for i in range(0, len(edges), 40):
                driver.update(Batch(insertions=edges[i : i + 40]))
            return c.count, driver.tracker.work

        assert run() == run()

    def test_matching_deterministic_for_seed(self):
        edges = erdos_renyi(40, 160, seed=11)

        def run(seed):
            driver, m = create_matching_driver(n_hint=50, seed=seed)
            driver.update(Batch(insertions=edges))
            return sorted(m.matching())

        assert run(5) == run(5)


class TestEmptyAndDegenerateBatches:
    def test_empty_batch_is_noop(self):
        plds = build_plds([(0, 1)])
        before = plds.to_snapshot()
        plds.update(Batch())
        assert plds.to_snapshot() == before

    def test_single_vertex_graph(self):
        plds = PLDS(n_hint=2)
        plds.insert_vertices([0])
        assert plds.coreness_estimate(0) == 0.0
        assert not plds.check_invariants()

    def test_two_node_toggle_many_times(self):
        plds = PLDS(n_hint=4, track_orientation=True)
        for _ in range(30):
            plds.update(Batch(insertions=[(0, 1)]))
            plds.update(Batch(deletions=[(0, 1)]))
        assert plds.num_edges == 0
        assert not plds.check_invariants()
