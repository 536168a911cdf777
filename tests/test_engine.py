"""Unit tests for the work-depth metering engine."""

from __future__ import annotations

import pytest

from repro.parallel.engine import Cost


class TestCost:
    def test_default_is_zero(self):
        assert Cost() == Cost(0, 0)

    def test_sequential_composition_adds_both(self):
        assert Cost(3, 2) + Cost(5, 7) == Cost(8, 9)

    def test_parallel_composition_sums_work_maxes_depth(self):
        assert Cost(3, 2) | Cost(5, 7) == Cost(8, 7)

    def test_parallel_composition_is_commutative(self):
        a, b = Cost(3, 9), Cost(4, 1)
        assert (a | b) == (b | a)

    def test_immutability(self):
        c = Cost(1, 1)
        with pytest.raises(AttributeError):
            c.work = 5  # type: ignore[misc]


class TestTrackerSequential:
    def test_starts_at_zero(self, tracker):
        assert tracker.work == 0
        assert tracker.depth == 0

    def test_add_accumulates(self, tracker):
        tracker.add(work=3, depth=2)
        tracker.add(work=4, depth=1)
        assert (tracker.work, tracker.depth) == (7, 3)

    def test_add_defaults_to_unit(self, tracker):
        tracker.add()
        assert (tracker.work, tracker.depth) == (1, 1)

    def test_reset(self, tracker):
        tracker.add(work=10, depth=10)
        tracker.reset()
        assert tracker.cost == Cost(0, 0)

    def test_snapshot_delta(self, tracker):
        tracker.add(work=5, depth=5)
        snap = tracker.snapshot()
        tracker.add(work=3, depth=2)
        assert tracker.delta(snap) == Cost(3, 2)


class TestTrackerParallel:
    def test_parallel_branches_max_depth(self, tracker):
        with tracker.parallel() as par:
            for d in (3, 7, 2):
                with par.branch():
                    tracker.add(work=10, depth=d)
        assert tracker.work == 30
        assert tracker.depth == 7

    def test_empty_parallel_scope_is_free(self, tracker):
        with tracker.parallel():
            pass
        assert tracker.cost == Cost(0, 0)

    def test_nested_parallel_scopes(self, tracker):
        # outer scope: two branches; one branch contains an inner parallel
        with tracker.parallel() as outer:
            with outer.branch():
                tracker.add(work=1, depth=1)
                with tracker.parallel() as inner:
                    for _ in range(4):
                        with inner.branch():
                            tracker.add(work=2, depth=5)
                # branch total: depth 1 + 5 = 6, work 1 + 8 = 9
            with outer.branch():
                tracker.add(work=100, depth=2)
        assert tracker.work == 109
        assert tracker.depth == 6

    def test_sequential_after_parallel_adds(self, tracker):
        with tracker.parallel() as par:
            with par.branch():
                tracker.add(work=1, depth=4)
        tracker.add(work=1, depth=3)
        assert tracker.depth == 7

    def test_parallel_then_parallel_compose_sequentially(self, tracker):
        for _ in range(2):
            with tracker.parallel() as par:
                with par.branch():
                    tracker.add(work=1, depth=5)
        assert tracker.depth == 10


class TestBranchExceptionSafety:
    def test_branch_pops_frame_on_exception(self, tracker):
        with pytest.raises(RuntimeError):
            with tracker.parallel() as par:
                with par.branch():
                    tracker.add(work=5, depth=5)
                    raise RuntimeError("boom")
        # The tracker must still be usable with a balanced stack.
        tracker.add(work=1, depth=1)
        assert tracker.depth >= 1

    def test_costs_before_exception_are_recorded(self, tracker):
        try:
            with tracker.parallel() as par:
                with par.branch():
                    tracker.add(work=7, depth=7)
                    raise ValueError
        except ValueError:
            pass
        # branch exit folded its frame before propagating
        assert tracker.work in (0, 7)  # scope exit may be skipped by the raise
        with tracker.parallel() as par:
            with par.branch():
                tracker.add(work=1, depth=1)
        assert tracker.work >= 1


class TestFlatParfor:
    def test_costs(self, tracker):
        depths = [1, 9, 3]

        def body(d):
            tracker.add(work=d, depth=d)

        tracker.flat_parfor(depths, body)
        assert tracker.work == 13
        assert tracker.depth == 9

    def test_executes_all_in_order(self, tracker):
        seen = []
        tracker.flat_parfor(range(5), seen.append)
        assert seen == [0, 1, 2, 3, 4]

    def test_empty_adds_nothing(self, tracker):
        tracker.flat_parfor([], lambda x: tracker.add(work=99, depth=99))
        assert tracker.cost == Cost(0, 0)

    def test_scratch_frame_popped_when_body_raises(self, tracker):
        def body(x):
            tracker.add(work=5, depth=5)
            if x == 1:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            tracker.flat_parfor(range(3), body)
        # The scratch frame is gone: the next charge lands on the root
        # frame, and nothing of the aborted loop was folded into it.
        assert len(tracker._stack) == 1
        tracker.add(work=1, depth=1)
        assert tracker.cost == Cost(1, 1)


class TestSnapshotDeltaScoping:
    """snapshot()/delta() read the *root* frame only — the contract span
    tracing (repro.obs.tracing) builds its reconciliation invariant on."""

    def test_delta_inside_open_branch_reads_zero(self, tracker):
        snap = tracker.snapshot()
        with tracker.parallel() as par:
            with par.branch():
                tracker.add(work=9, depth=4)
                # Charges live on the branch frame: not yet visible at root.
                assert tracker.delta(snap) == Cost(0, 0)
            # Folded into the scope, still not at root.
            assert tracker.delta(snap) == Cost(0, 0)
        # Scope closed: the combined cost lands on the root frame.
        assert tracker.delta(snap) == Cost(9, 4)

    def test_delta_across_nested_parallel_scopes(self, tracker):
        tracker.add(work=1, depth=1)
        snap = tracker.snapshot()
        with tracker.parallel() as outer:
            with outer.branch():
                with tracker.parallel() as inner:
                    for d in (2, 5):
                        with inner.branch():
                            tracker.add(work=3, depth=d)
                tracker.add(work=1, depth=1)
        # inner: work 6, depth 5; branch adds (1, 1) sequentially.
        assert tracker.delta(snap) == Cost(7, 6)
        assert tracker.snapshot() == Cost(8, 7)

    def test_delta_spanning_flat_parfor(self, tracker):
        snap = tracker.snapshot()
        tracker.flat_parfor([1, 4, 2], lambda d: tracker.add(work=d, depth=d))
        assert tracker.delta(snap) == Cost(7, 4)

    def test_sequential_snapshots_tile_the_run(self, tracker):
        """Back-to-back deltas sum to the total — no charge lost or doubled."""
        deltas = []
        for d in (3, 7, 2):
            snap = tracker.snapshot()
            with tracker.parallel() as par:
                with par.branch():
                    tracker.add(work=10, depth=d)
            deltas.append(tracker.delta(snap))
        total = Cost(0, 0)
        for c in deltas:
            total = total + c
        assert total == tracker.cost == Cost(30, 12)
