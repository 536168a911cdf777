"""Unit tests for update-stream generation and batch preprocessing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.streams import (
    Batch,
    EdgeUpdate,
    deletion_batches,
    insertion_batches,
    mixed_batch,
    preprocess_batch,
)

EDGES = erdos_renyi(60, 150, seed=3)


class TestEdgeUpdate:
    def test_negative_id_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"negative vertex id .*u=-1"):
            EdgeUpdate(-1, 2, True)
        with pytest.raises(ValueError, match=r"negative vertex id .*v=-2"):
            EdgeUpdate(1, -2, is_insert=False, timestamp=3)

    def test_immutable_named_tuple(self):
        upd = EdgeUpdate(5, 2, True, timestamp=4)
        with pytest.raises(AttributeError):
            upd.u = 7
        with pytest.raises(TypeError):
            upd[0] = 7
        assert not hasattr(upd, "__dict__")
        assert (upd.u, upd.v, upd.is_insert, upd.timestamp) == (5, 2, True, 4)
        assert upd.edge == (2, 5)
        assert EdgeUpdate(5, 2, True) == EdgeUpdate(5, 2, True, 0)
        assert hash(upd) == hash(EdgeUpdate(5, 2, True, 4))
        assert len({upd, EdgeUpdate(5, 2, True, 4)}) == 1
        assert repr(upd) == "EdgeUpdate(u=5, v=2, is_insert=True, timestamp=4)"


class TestInsertionBatches:
    def test_covers_all_edges_once(self):
        batches = insertion_batches(EDGES, 40, seed=1)
        flat = [e for b in batches for e in b.insertions]
        assert sorted(flat) == sorted(EDGES)

    def test_batch_sizes(self):
        batches = insertion_batches(EDGES, 40, seed=1)
        assert [len(b) for b in batches] == [40, 40, 40, 30]

    def test_temporal_preserves_order(self):
        batches = insertion_batches(EDGES, 50, temporal=True)
        flat = [e for b in batches for e in b.insertions]
        assert flat == list(EDGES)

    def test_shuffle_is_seeded(self):
        a = insertion_batches(EDGES, 40, seed=1)
        b = insertion_batches(EDGES, 40, seed=1)
        assert all(x.insertions == y.insertions for x, y in zip(a, b))

    def test_no_deletions(self):
        assert all(not b.deletions for b in insertion_batches(EDGES, 40))


class TestDeletionBatches:
    def test_covers_all_edges_once(self):
        batches = deletion_batches(EDGES, 33, seed=1)
        flat = [e for b in batches for e in b.deletions]
        assert sorted(flat) == sorted(EDGES)

    def test_no_insertions(self):
        assert all(not b.insertions for b in deletion_batches(EDGES, 33))


class TestMixedBatch:
    def test_half_and_half(self):
        initial, batch = mixed_batch(EDGES, 40, seed=1)
        assert len(batch.insertions) == 20
        assert len(batch.deletions) == 20

    def test_insertions_absent_from_initial(self):
        initial, batch = mixed_batch(EDGES, 40, seed=1)
        initial_set = set(initial)
        assert all(e not in initial_set for e in batch.insertions)

    def test_deletions_present_in_initial(self):
        initial, batch = mixed_batch(EDGES, 40, seed=1)
        initial_set = set(initial)
        assert all(e in initial_set for e in batch.deletions)

    def test_disjoint_insert_delete(self):
        _, batch = mixed_batch(EDGES, 40, seed=1)
        assert not (set(batch.insertions) & set(batch.deletions))


class TestPreprocessBatch:
    def test_latest_timestamp_wins(self):
        g = DynamicGraph()
        ups = [
            EdgeUpdate(1, 2, is_insert=True, timestamp=0),
            EdgeUpdate(2, 1, is_insert=False, timestamp=1),
        ]
        batch = preprocess_batch(g, ups)
        # final action is a delete of a non-existent edge -> dropped
        assert len(batch) == 0

    def test_insert_of_existing_edge_dropped(self):
        g = DynamicGraph([(1, 2)])
        batch = preprocess_batch(g, [EdgeUpdate(1, 2, True)])
        assert len(batch) == 0

    def test_delete_of_existing_edge_kept(self):
        g = DynamicGraph([(1, 2)])
        batch = preprocess_batch(g, [EdgeUpdate(2, 1, False)])
        assert batch.deletions == [(1, 2)]

    def test_valid_insert_kept(self):
        g = DynamicGraph()
        batch = preprocess_batch(g, [EdgeUpdate(3, 4, True)])
        assert batch.insertions == [(3, 4)]

    def test_duplicate_updates_collapse(self):
        g = DynamicGraph()
        ups = [
            EdgeUpdate(1, 2, True, timestamp=0),
            EdgeUpdate(1, 2, False, timestamp=1),
            EdgeUpdate(1, 2, True, timestamp=2),
        ]
        batch = preprocess_batch(g, ups)
        assert batch.insertions == [(1, 2)]
        assert not batch.deletions

    def test_batch_len(self):
        b = Batch(insertions=[(0, 1)], deletions=[(2, 3), (4, 5)])
        assert len(b) == 3

    def test_equal_timestamp_tie_breaks_on_submission_order(self):
        # Two updates for the same edge with the SAME timestamp: the one
        # submitted later must win, deterministically, in both orders.
        g = DynamicGraph()
        ins = EdgeUpdate(1, 2, True, timestamp=5)
        dele = EdgeUpdate(2, 1, False, timestamp=5)
        assert preprocess_batch(g, [dele, ins]).insertions == [(1, 2)]
        # insert then delete: final action deletes a non-existent edge
        assert len(preprocess_batch(g, [ins, dele])) == 0

    def test_equal_timestamp_tie_break_on_existing_edge(self):
        g = DynamicGraph([(1, 2)])
        ins = EdgeUpdate(1, 2, True, timestamp=3)
        dele = EdgeUpdate(1, 2, False, timestamp=3)
        assert preprocess_batch(g, [ins, dele]).deletions == [(1, 2)]
        assert len(preprocess_batch(g, [dele, ins])) == 0

    def test_generator_input_accepted(self):
        g = DynamicGraph()
        batch = preprocess_batch(
            g, (EdgeUpdate(i, i + 1, True, timestamp=i) for i in range(3))
        )
        assert sorted(batch.insertions) == [(0, 1), (1, 2), (2, 3)]


def _sorting_preprocess(graph, updates) -> Batch:
    """The sort-based reference: order every update by (edge, timestamp,
    arrival), keep the last per edge, then validate against ``graph``."""
    latest = {}
    indexed = sorted(
        enumerate(updates), key=lambda ix: (ix[1].edge, ix[1].timestamp, ix[0])
    )
    for _, upd in indexed:
        if upd.u != upd.v:
            latest[upd.edge] = upd
    batch = Batch()
    for edge, upd in latest.items():
        if upd.is_insert and not graph.has_edge(*edge):
            batch.insertions.append(edge)
        elif not upd.is_insert and graph.has_edge(*edge):
            batch.deletions.append(edge)
    return batch


_vertex = st.integers(0, 7)
#: Few vertices and timestamps, so duplicates, reversed pairs, self-loops
#: and equal-timestamp ties are all common.
_raw_updates = st.lists(
    st.builds(EdgeUpdate, _vertex, _vertex, st.booleans(), st.integers(0, 3)),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    present=st.sets(
        st.tuples(_vertex, _vertex).filter(lambda e: e[0] < e[1]), max_size=15
    ),
    updates=_raw_updates,
)
def test_preprocess_matches_sorting_reference(present, updates):
    g = DynamicGraph(sorted(present))
    got = preprocess_batch(g, updates)
    want = _sorting_preprocess(g, updates)
    assert got.insertions == want.insertions
    assert got.deletions == want.deletions
