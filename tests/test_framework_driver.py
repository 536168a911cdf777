"""Tests for the Section-8 framework driver itself."""

from __future__ import annotations

from repro.framework.framework import FrameworkDriver
from repro.graphs.streams import Batch, EdgeUpdate


class RecordingApp:
    """Captures the callback sequence for assertions."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, object]] = []

    def batch_flips(self, flips, ins, dels):
        self.calls.append(("flips", (list(flips), list(ins), list(dels))))

    def batch_delete(self, dels):
        self.calls.append(("delete", list(dels)))

    def batch_insert(self, ins):
        self.calls.append(("insert", list(ins)))


class RecordingAppWithMoved(RecordingApp):
    def batch_moved(self, moved):
        self.calls.append(("moved", set(moved)))


class TestCallbackOrdering:
    def test_flips_then_delete_then_insert(self):
        app = RecordingApp()
        driver = FrameworkDriver(app, n_hint=10)
        driver.update(Batch(insertions=[(0, 1), (1, 2)]))
        assert [c[0] for c in app.calls] == ["flips", "delete", "insert"]

    def test_batch_moved_called_first_when_present(self):
        app = RecordingAppWithMoved()
        driver = FrameworkDriver(app, n_hint=10)
        clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        driver.update(Batch(insertions=clique))
        assert app.calls[0][0] == "moved"
        assert app.calls[0][1]  # a clique forces level moves

    def test_oriented_insertions_passed_through(self):
        app = RecordingApp()
        driver = FrameworkDriver(app, n_hint=10)
        driver.update(Batch(insertions=[(3, 4)]))
        kind, ins = app.calls[-1]
        assert kind == "insert"
        assert ins in ([(3, 4)], [(4, 3)])

    def test_deletions_carry_pre_batch_orientation(self):
        app = RecordingApp()
        driver = FrameworkDriver(app, n_hint=10)
        driver.update(Batch(insertions=[(0, 1)]))
        expected = driver.plds.orientation_of(0, 1)
        driver.update(Batch(deletions=[(0, 1)]))
        deletes = [c for c in app.calls if c[0] == "delete"][-1][1]
        assert deletes == [expected]


class TestUpdateRaw:
    def test_dedupe_and_validate(self):
        app = RecordingApp()
        driver = FrameworkDriver(app, n_hint=10)
        driver.update(Batch(insertions=[(0, 1)]))
        updates = [
            EdgeUpdate(0, 1, True, timestamp=0),    # duplicate insert: dropped
            EdgeUpdate(1, 2, True, timestamp=0),    # valid insert
            EdgeUpdate(1, 2, False, timestamp=1),   # ...superseded by delete
            EdgeUpdate(5, 6, False, timestamp=0),   # delete missing: dropped
            EdgeUpdate(2, 3, True, timestamp=0),    # valid insert
        ]
        driver.update_raw(updates)
        assert driver.plds.has_edge(2, 3)
        assert not driver.plds.has_edge(1, 2)
        assert driver.plds.has_edge(0, 1)

    def test_raw_reinsert_after_delete_in_one_call(self):
        app = RecordingApp()
        driver = FrameworkDriver(app, n_hint=10)
        driver.update(Batch(insertions=[(0, 1)]))
        driver.update_raw(
            [
                EdgeUpdate(0, 1, False, timestamp=0),
                EdgeUpdate(0, 1, True, timestamp=1),
            ]
        )
        # Final state: edge exists (latest wins; it already existed, so
        # the insert is dropped as invalid and the delete superseded).
        assert driver.plds.has_edge(0, 1)


class TestDriverConfig:
    def test_group_shrink_forwarded(self):
        app = RecordingApp()
        fast = FrameworkDriver(app, n_hint=1000, group_shrink=50)
        slow = FrameworkDriver(app, n_hint=1000)
        assert fast.plds.num_levels < slow.plds.num_levels

    def test_driver_owns_orientation_tracking(self):
        app = RecordingApp()
        driver = FrameworkDriver(app, n_hint=10)
        assert driver.plds.track_orientation

    def test_shared_tracker(self):
        app = RecordingApp()
        driver = FrameworkDriver(app, n_hint=10)
        driver.update(Batch(insertions=[(0, 1)]))
        assert driver.tracker.work > 0
        assert driver.tracker is driver.plds.tracker
