"""Differential oracle for the bulk-load path of Algorithm 2.

A batch into an edgeless levelwise PLDS whose endpoints all sit at level
0 runs :meth:`PLDS._bulk_peel` instead of the level loop.  The peel
claims to be the same parallel execution, simulated faster, so every
test here runs one scenario twice — once as shipped, once with the peel
replaced by the level loop it stands for (:func:`_level_loop`, patched
in; the program has no switch) — and compares everything observable:
levels and U/L partitions by id, every :class:`UpdateResult` field,
``last_moved``, metered work and depth, the span list, every metric
sample, the fault-site hit sequence, rollback and journal recovery.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.plds import PLDS
from repro.faults import FaultPlan, FaultPoint, InjectedFault
from repro.graphs.generators import barabasi_albert, erdos_renyi, grid_2d
from repro.graphs.streams import Batch
from repro.obs import metrics, tracing
from repro.service import CoreService

ORACLE = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _level_loop(self, insertions, moved):
    """The level loop the peel replaces, from the same linked state: every
    endpoint marked at level 0."""
    self._rise({0: sorted({v for e in insertions for v in e})}, moved)


def _twice(monkeypatch, fn):
    """``fn()`` as shipped, then with the level loop forced."""
    peel = fn()
    with monkeypatch.context() as m:
        m.setattr(PLDS, "_bulk_peel", _level_loop)
        loop = fn()
    return peel, loop


def _state(p: PLDS, result=None) -> dict:
    recs = p._vertices
    state = {
        "levels": {v: r.level for v, r in recs.items()},
        "up": {v: sorted(w.id for w in r.up) for v, r in recs.items()},
        "down": {
            v: {j: sorted(w.id for w in s) for j, s in r.down.items()}
            for v, r in recs.items()
        },
        "deg": {v: r.deg for v, r in recs.items()},
        "m": p.num_edges,
        "n_hint": p.n_hint,
        "orient": dict(p._orient),
        "last_moved": p.last_moved,
        "cost": (p.tracker.work, p.tracker.depth),
    }
    if result is not None:
        state["result"] = (
            result.flipped,
            result.oriented_insertions,
            result.oriented_deletions,
            result.moved_vertices,
        )
    return state


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@st.composite
def loads(draw):
    """An edge set (random, power-law or grid), endpoints pre-created by
    ``insert_vertices``, isolated non-endpoints, and PLDS parameters."""
    kind = draw(st.sampled_from(["random", "power_law", "grid"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "random":
        n = draw(st.integers(2, 60))
        m = draw(st.integers(1, min(300, n * (n - 1) // 2)))
        edges = erdos_renyi(n, m, seed=seed)
    elif kind == "power_law":
        n = draw(st.integers(7, 150))
        edges = barabasi_albert(n, draw(st.integers(1, 6)), seed=seed)
    else:
        edges = grid_2d(draw(st.integers(1, 12)), draw(st.integers(2, 12)))
    endpoints = sorted({v for e in edges for v in e})
    top = endpoints[-1]
    pre = draw(st.lists(st.sampled_from(endpoints), max_size=8, unique=True))
    isolated = draw(
        st.lists(st.integers(top + 1, top + 40), max_size=6, unique=True)
    )
    params = {
        # Small hints take the Section-5.9 rebuild and the table overflow.
        "n_hint": draw(st.sampled_from([2, len(endpoints), 4 * top + 4])),
        "group_shrink": draw(st.sampled_from([1, 50])),
        "upper_coeff": draw(st.sampled_from([None, 1.1])),
        "structure": draw(st.sampled_from(PLDS._STRUCTURES)),
        "track_orientation": draw(st.booleans()),
    }
    return edges, pre, isolated, params


def _load(edges, pre, isolated, params):
    p = PLDS(**params)
    if pre:
        p.insert_vertices(pre)
    if isolated:
        p.insert_vertices(isolated)
    result = p.update(Batch(insertions=list(edges)))
    return p, result


class _Census(FaultPlan):
    """A plan that never fires and records every site hit in order."""

    def __init__(self) -> None:
        super().__init__()
        self.sequence: list[str] = []

    def hit(self, site: str) -> None:
        self.sequence.append(site)
        super().hit(site)


def _spans(tracer: tracing.Tracer) -> list[tuple]:
    out: list[tuple] = []

    def walk(span, depth):
        attrs = tuple(sorted(span.attrs.items()))
        out.append((depth, span.name, attrs, span.work, span.depth, span.error))
        for child in span.children:
            walk(child, depth + 1)

    for root in tracer.finish():
        walk(root, 0)
    return out


# ---------------------------------------------------------------------------
# The differential oracle
# ---------------------------------------------------------------------------


class TestBulkLoadOracle:
    @ORACLE
    @given(loads())
    def test_state_results_and_totals_match(self, load):
        def loaded():
            p, result = _load(*load)
            return _state(p, result), p.check_invariants()

        with pytest.MonkeyPatch.context() as mp:
            peel, loop = _twice(mp, loaded)
        assert peel == loop
        assert peel[1] == []

    @pytest.mark.obs
    @ORACLE
    @given(loads())
    def test_spans_and_metric_samples_match(self, load):
        def observed():
            tracer = tracing.Tracer()
            with tracing.tracing(tracer), metrics.collecting() as reg:
                state = _state(*_load(*load))
            return state, _spans(tracer), reg.to_json_dict()

        with pytest.MonkeyPatch.context() as mp:
            peel, loop = _twice(mp, observed)
        assert peel[1] == loop[1]
        assert peel[2] == loop[2]
        assert peel[0] == loop[0]

    @pytest.mark.faults
    @ORACLE
    @given(loads())
    def test_fault_hit_sequence_matches(self, load):
        def counted():
            with faults.active(_Census()) as plan:
                state = _state(*_load(*load))
            return state, plan.sequence

        with pytest.MonkeyPatch.context() as mp:
            peel, loop = _twice(mp, counted)
        assert peel == loop
        assert "plds.rise" in peel[1]

    @pytest.mark.parametrize("group_shrink", [1, 50])
    @pytest.mark.parametrize(
        "edges",
        [
            barabasi_albert(3000, 4, seed=3),
            barabasi_albert(2000, 4, seed=5)[:4000],
            grid_2d(30, 30),
        ],
        ids=["ba", "ba-prefix", "grid"],
    )
    def test_larger_loads_match(self, monkeypatch, edges, group_shrink):
        def load():
            p = PLDS(n_hint=3000, group_shrink=group_shrink)
            return _state(p, p.update(Batch(insertions=list(edges))))

        peel, loop = _twice(monkeypatch, load)
        assert peel == loop
        assert len(peel["result"][3]) > 0  # the load moved vertices

    def test_peel_runs_only_from_an_edgeless_level0_start(self, monkeypatch):
        calls = []
        real = PLDS._bulk_peel

        def spy(self, insertions, moved):
            calls.append(len(insertions))
            real(self, insertions, moved)

        monkeypatch.setattr(PLDS, "_bulk_peel", spy)
        edges = barabasi_albert(200, 3, seed=1)
        PLDS(256, insertion_strategy="jump").update(Batch(insertions=edges))
        assert calls == []
        p = PLDS(256)
        p.update(Batch(insertions=edges[:300]))
        p.update(Batch(insertions=edges[300:]))
        assert calls == [300]
        # Every edge deleted again: the structure is edgeless, its
        # vertices back at level 0, so the next load is a bulk load.
        p.update(Batch(deletions=edges))
        p.update(Batch(insertions=edges))
        assert calls == [300, len(edges)]
        # An isolated vertex above level 0 keeps the level loop.
        q = PLDS(256)
        q.insert_vertices([7])
        q._vertices[7].level = 3
        q.update(Batch(insertions=[(7, 8)]))
        assert calls == [300, len(edges)]


# ---------------------------------------------------------------------------
# Every restart path
# ---------------------------------------------------------------------------


class TestRestartPaths:
    def test_rebuild_replay_matches(self, monkeypatch):
        edges = barabasi_albert(400, 4, seed=11)

        def rebuilt():
            p = PLDS(n_hint=512, track_orientation=True)
            for i in range(0, len(edges), 97):
                p.update(Batch(insertions=edges[i : i + 97]))
            p.insert_vertices(range(400, 1200))  # outgrows n_hint
            assert p.n_hint == 2400
            return _state(p)

        peel, loop = _twice(monkeypatch, rebuilt)
        assert peel == loop

    def test_from_journal_first_batch_matches(self, monkeypatch):
        edges = barabasi_albert(500, 4, seed=2)
        svc = CoreService("pldsopt", n_hint=512)
        svc.apply_batch(Batch(insertions=edges[:1500]))
        svc.apply_batch(
            Batch(insertions=edges[1500:], deletions=edges[:200])
        )

        def recovered():
            rec = CoreService.from_journal(svc.journal, "pldsopt", n_hint=512)
            return (
                rec.engine.to_snapshot(),
                [(t.work, t.depth) for t in rec.telemetry],
            )

        peel, loop = _twice(monkeypatch, recovered)
        assert peel == loop
        assert peel[0] == svc.engine.to_snapshot()
        assert peel[1] == [(t.work, t.depth) for t in svc.telemetry]


@pytest.mark.faults
class TestRollbackInsideThePeel:
    EDGES = barabasi_albert(300, 4, seed=9)

    def _service(self, start: str) -> CoreService:
        svc = CoreService("plds", n_hint=512)
        if start == "emptied":
            # Committed vertices but no edges: the load is still bulk.
            svc.apply_batch(Batch(insertions=self.EDGES[:50]))
            svc.apply_batch(Batch(deletions=self.EDGES[:50]))
        return svc

    def _rise_hits(self, start: str) -> int:
        svc = self._service(start)
        with faults.active(faults.recording_plan()) as census:
            svc.apply_batch(Batch(insertions=self.EDGES))
        return census.counts["plds.rise"]

    @pytest.mark.parametrize("start", ["fresh", "emptied"])
    def test_every_rise_hit_rolls_back_to_the_committed_state(self, start):
        hits = self._rise_hits(start)
        assert hits > 3
        twin = self._service(start)
        twin.apply_batch(Batch(insertions=self.EDGES))
        for k in range(1, hits + 1):
            svc = self._service(start)
            before = svc.engine.to_snapshot()
            epoch = svc.reader().epoch
            # Attempt 1 crashes at the k-th popped level; 2-3 at entry.
            plan = FaultPlan([
                FaultPoint("plds.rise", k),
                FaultPoint("service.apply", 2),
                FaultPoint("service.apply", 3),
            ])
            with faults.active(plan), pytest.raises(InjectedFault):
                svc.apply_batch(Batch(insertions=self.EDGES))
            assert svc.engine.to_snapshot() == before
            assert svc.reader().epoch == epoch
            assert svc.audit() == []
            # A transient crash at the same hit retries and commits the
            # fault-free state.
            svc = self._service(start)
            with faults.active(FaultPlan([FaultPoint("plds.rise", k)])):
                entry = svc.apply_batch(Batch(insertions=self.EDGES))
            assert entry.rolled_back
            assert svc.engine.to_snapshot() == twin.engine.to_snapshot()


# ---------------------------------------------------------------------------
# Level-table overflow
# ---------------------------------------------------------------------------


def _clique(k: int) -> list[tuple[int, int]]:
    return list(combinations(range(k), 2))


class TestLevelTableOverflow:
    """A rise past the top level rebuilds on a grown table instead of
    raising ``IndexError``: from the peel, the level loop and the jump
    strategy's desire-level scan."""

    @pytest.mark.parametrize("path", ["peel", "loop", "jump"])
    def test_plds_clique_overflows_and_commits(self, monkeypatch, path):
        if path == "loop":
            monkeypatch.setattr(PLDS, "_bulk_peel", _level_loop)
        strategy = "jump" if path == "jump" else "levelwise"
        p = PLDS(2, insertion_strategy=strategy)
        top = p._inv1_bound_int[-1]
        assert top < 49  # the 50-clique's degree
        p.update(Batch(insertions=_clique(50)))
        assert p.n_hint >= 100
        assert p.check_invariants() == []
        assert p.last_moved is None  # a rebuild re-levels everything
        est = p.coreness_estimates()
        factor = p.approximation_factor()
        assert all(49 / factor <= est[v] <= 49 * factor for v in range(50))

    @pytest.mark.parametrize("path", ["peel", "loop", "jump"])
    def test_overflow_mid_cascade_on_a_loaded_structure(self, monkeypatch, path):
        if path == "loop":
            monkeypatch.setattr(PLDS, "_bulk_peel", _level_loop)
        strategy = "jump" if path == "jump" else "levelwise"
        p = PLDS(8, group_shrink=50, insertion_strategy=strategy)
        p.update(Batch(insertions=[(0, 1), (1, 2)]))
        p.update(Batch(insertions=[e for e in _clique(60) if e[0] >= 2]))
        assert p.check_invariants() == []
        assert p.num_edges == 2 + len(_clique(58))

    @pytest.mark.parametrize("algorithm", ["pldsopt", "plds"])
    def test_service_batch_commits(self, algorithm):
        svc = CoreService(algorithm, n_hint=8)
        entry = svc.apply_batch(Batch(insertions=_clique(60)))
        assert entry.attempts == 1 and not entry.rolled_back
        assert svc.num_edges == len(_clique(60))
        engine = svc.engine
        assert engine.check_invariants() == []
        assert svc.audit() == []
        if algorithm == "plds":
            factor = engine.approximation_factor()
            assert all(
                59 / factor <= svc.coreness(v) <= 59 * factor for v in range(60)
            )

    def test_overflow_is_traced_as_a_rebuild(self):
        tracer = tracing.Tracer()
        with tracing.tracing(tracer), metrics.collecting() as reg:
            PLDS(2).update(Batch(insertions=_clique(50)))
        roots = tracer.finish()
        names = [c.name for c in roots[0].children]
        assert "plds.rebuild" in names
        assert reg.counter_value("plds.rebuilds") == 1
        assert all(s.error is None for s in roots[0].children)
