"""The benchmark's four workloads: seeded input streams plus the calls that drive them.

Every workload builds its system from registry defaults on the simulated
backend, picks engines by registry key only (``pldsopt``,
``plds-sharded``), and hands the program nothing but generated batches and
read keys.  A workload object is used in three steps by ``run.py``:

1. ``build()`` constructs the initial state from the pre-generated load
   (timed as ``setup_s``; called several times, the last build is kept);
2. ``next_ops()`` generates one closed-loop step on the client side: the
   write payload, the point-read keys and the heavy queries;
3. ``write`` / ``point_timed`` / ``heavy_timed`` issue those calls, one
   after another.

The stream model each workload keeps (``live_edges()``) is the oracle the
correctness gate checks the program against.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable

from repro.graphs.generators import barabasi_albert, grid_2d
from repro.graphs.streams import Batch, EdgeUpdate
from repro.registry import make_adapter
from repro.service import CoreService

__all__ = ["WORKLOADS", "Workload"]

#: Pareto shape of the hot-key read distribution and the id stretch that
#: maps its samples onto vertex ids; low ids are the oldest, best-connected
#: vertices of a Barabási–Albert graph, so they are also the hottest keys.
_PARETO_SHAPE = 1.2
_HOT_STRETCH = 50.0


class SlidingWindow:
    """Temporal sliding window over a cyclic edge order.

    The live graph is the ``window`` edges at positions
    ``[head - window, head)`` (mod m); each step arrives the next ``size``
    edges and expires the ``size`` oldest, so the live size stays fixed and
    the stream never runs out.
    """

    def __init__(self, edges: list[tuple[int, int]], window: int, size: int) -> None:
        if not 0 < size <= window or window + size > len(edges):
            raise ValueError("sliding window needs 0 < size <= window <= m - size")
        self.edges = edges
        self.window = window
        self.size = size
        self.head = window

    def initial(self) -> list[tuple[int, int]]:
        return self.edges[: self.window]

    def step(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        m = len(self.edges)
        tail = self.head - self.window
        arriving = [self.edges[(self.head + j) % m] for j in range(self.size)]
        expiring = [self.edges[(tail + j) % m] for j in range(self.size)]
        self.head += self.size
        return arriving, expiring

    def live_edges(self) -> set[tuple[int, int]]:
        m = len(self.edges)
        return {self.edges[p % m] for p in range(self.head - self.window, self.head)}


class RandomChurn:
    """Each step deletes ``size`` random live edges and inserts ``size``
    random absent ones (swap-remove pools, so a step costs O(size))."""

    def __init__(
        self, edges: list[tuple[int, int]], live_frac: float, size: int, rng: random.Random
    ) -> None:
        order = list(edges)
        rng.shuffle(order)
        cut = int(len(order) * live_frac)
        if not 0 < size <= min(cut, len(order) - cut):
            raise ValueError("churn size exceeds the live or the absent pool")
        self.live = order[:cut]
        self.absent = order[cut:]
        self.size = size
        self.rng = rng

    def initial(self) -> list[tuple[int, int]]:
        return list(self.live)

    def _take(self, pool: list[tuple[int, int]]) -> tuple[int, int]:
        i = self.rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        return pool.pop()

    def step(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        deleted = [self._take(self.live) for _ in range(self.size)]
        inserted = [self._take(self.absent) for _ in range(self.size)]
        self.live.extend(inserted)
        self.absent.extend(deleted)
        return inserted, deleted

    def live_edges(self) -> set[tuple[int, int]]:
        return set(self.live)


class HalfCycles:
    """Cycles of deleting a random half of the edges in batches of ``size``,
    then reinserting that half in the same batches."""

    def __init__(self, edges: list[tuple[int, int]], size: int, rng: random.Random) -> None:
        self.edges = edges
        self.size = size
        self.rng = rng
        self.pending: list[Batch] = []
        self.removed: set[tuple[int, int]] = set()

    def step(self) -> Batch:
        if not self.pending:
            half = self.rng.sample(self.edges, len(self.edges) // 2)
            chunks = [half[i : i + self.size] for i in range(0, len(half), self.size)]
            self.pending = [Batch(deletions=c) for c in chunks]
            self.pending += [Batch(insertions=c) for c in chunks]
            self.pending.reverse()
        batch = self.pending.pop()
        self.removed.update(batch.deletions)
        self.removed.difference_update(batch.insertions)
        return batch

    def live_edges(self) -> set[tuple[int, int]]:
        return set(self.edges) - self.removed


class Workload:
    """Shared client-side plan: read keys, heavy-query schedule, oracle."""

    def __init__(
        self,
        name: str,
        rng: random.Random,
        n: int,
        *,
        min_batches: int,
        point_reads: int,
        hot_keys: bool,
        heavy_every: int,
        heavy: tuple[tuple[str, float], ...],
    ) -> None:
        self.name = name
        self.rng = rng
        self.n = n
        #: timed batches every run makes at least, all at the machine's
        #: fast speed, whatever ``--seconds`` says: it fixes the tail
        #: percentile each workload can report and the window of the
        #: deterministic metrics.
        self.min_batches = min_batches
        self.point_reads = point_reads
        self.hot_keys = hot_keys
        self.heavy_every = heavy_every
        self.heavy_plan = heavy
        self._step = 0

    def _key(self) -> int:
        if self.hot_keys:
            return int((self.rng.paretovariate(_PARETO_SHAPE) - 1.0) * _HOT_STRETCH) % self.n
        return self.rng.randrange(self.n)

    def next_ops(self) -> tuple[Any, list[int], tuple[tuple[str, float], ...]]:
        """One closed-loop step: (write payload, point keys, heavy queries)."""
        payload = self._payload()
        keys = [self._key() for _ in range(self.point_reads)]
        heavy = self.heavy_plan if self._step % self.heavy_every == 0 else ()
        self._step += 1
        return payload, keys, heavy

    def _payload(self) -> Any:
        raise NotImplementedError


class ServiceWorkload(Workload):
    """Writes through ``CoreService.apply_updates``, reads through its reader."""

    def __init__(
        self,
        name: str,
        rng: random.Random,
        n: int,
        stream: SlidingWindow | RandomChurn,
        engine: str,
        duplicates: int,
        engine_kwargs: dict[str, Any] | None = None,
        **plan: Any,
    ) -> None:
        super().__init__(name, rng, n, **plan)
        self.stream = stream
        self.engine_key = engine
        self.engine_kwargs = engine_kwargs or {}
        self.duplicates = duplicates
        self.initial = [EdgeUpdate(u, v, True) for u, v in stream.initial()]
        self.svc: CoreService | None = None
        self.reader: Any = None
        self._timestamp = 0

    def build(self) -> None:
        # Drop the previous build first, so two never coexist in memory.
        self.svc = None
        self.reader = None
        svc = CoreService(self.engine_key, n_hint=self.n, **self.engine_kwargs)
        svc.apply_updates(self.initial)
        self.svc = svc
        self.reader = svc.reader()

    @property
    def engine(self) -> Any:
        return self.svc.engine

    def _payload(self) -> list[EdgeUpdate]:
        self._timestamp += 1
        ts = self._timestamp
        arriving, expiring = self.stream.step()
        ups = [EdgeUpdate(u, v, True, ts) for u, v in arriving]
        ups += [EdgeUpdate(u, v, False, ts) for u, v in expiring]
        # Re-sent updates that preprocessing must collapse.
        ups += [EdgeUpdate(u, v, True, ts) for u, v in arriving[: self.duplicates]]
        return ups

    def write(self, payload: list[EdgeUpdate]) -> tuple[int, list[str]]:
        t = self.svc.apply_updates(payload)
        problems = []
        if t.rolled_back or t.degraded:
            problems.append(f"batch {t.batch_id}: rolled_back={t.rolled_back} degraded={t.degraded}")
        return t.insertions + t.deletions, problems

    def _check_read(self, r: Any) -> list[str]:
        if r.staleness != 0 or r.epoch != self.svc.read_epoch or r.degraded:
            return [f"read served epoch {r.epoch} staleness {r.staleness} "
                    f"(head epoch {self.svc.read_epoch}, degraded={r.degraded})"]
        return []

    def point_timed(self, v: int, clock: Callable[[], float]) -> tuple[float, list[str]]:
        t0 = clock()
        r = self.reader.coreness(v)
        dt = clock() - t0
        return dt, self._check_read(r)

    def heavy_timed(self, query: tuple[str, float], clock: Callable[[], float]) -> tuple[float, list[str]]:
        kind, k = query
        t0 = clock()
        if kind == "members":
            r = self.reader.core_members(k)
        else:
            r = self.reader.core_subgraph(int(k))
        dt = clock() - t0
        return dt, self._check_read(r)

    def estimates(self) -> dict[int, float]:
        return self.reader.coreness_map().value

    def space_bytes(self) -> int:
        return self.svc.space_bytes()

    def live_edges(self) -> set[tuple[int, int]]:
        return self.stream.live_edges()

    def final_violations(self, exact: dict[int, int]) -> list[str]:
        svc = self.svc
        problems = [f"audit: {p}" for p in svc.audit()]
        if svc.degraded:
            problems.append(f"service degraded to {svc.degraded_to}")
        view = self.reader.view
        if set(view.edges) != self.live_edges():
            problems.append("published edge set differs from the stream's live graph")
        if dict(view.estimates) != svc.coreness_map():
            problems.append("published estimates differ from the live engine")
        for kind, k in self.heavy_plan:
            if kind == "subgraph":
                verts, _ = self.reader.core_subgraph(int(k)).value
                if verts != {v for v, c in exact.items() if c >= k}:
                    problems.append(f"core_subgraph({k}) differs from exact peeling")
        return problems

    def instrument(self, wrap: Callable[[Any, str, str, Any], None]) -> None:
        svc, eng = self.svc, self.svc.engine
        tracker = eng.tracker
        wrap(svc, "apply_updates", "bench.service.apply_updates", tracker)
        wrap(svc, "apply_batch", "bench.service.apply_batch", tracker)
        wrap(svc.journal, "begin", "bench.service.journal", tracker)
        wrap(svc.journal, "commit", "bench.service.journal", tracker)
        wrap(eng, "to_snapshot", "bench.service.restore_point", tracker)
        wrap(eng, "publish_epoch", "bench.service.publish", tracker)
        wrap(eng, "update", "bench.core.update", tracker)
        wrap(self.reader, "coreness", "bench.query.point", None)
        wrap(self.reader, "core_members", "bench.query.heavy", None)
        wrap(self.reader, "core_subgraph", "bench.query.heavy", None)


class EngineWorkload(Workload):
    """Drives ``make_adapter(key)`` directly: no service, no epochs."""

    def __init__(self, name: str, rng: random.Random, n: int, stream: HalfCycles,
                 engine: str, **plan: Any) -> None:
        super().__init__(name, rng, n, **plan)
        self.stream = stream
        self.engine_key = engine
        self.adapter: Any = None

    def build(self) -> None:
        self.adapter = None  # as in ServiceWorkload.build
        adapter = make_adapter(self.engine_key, self.n)
        adapter.initialize(self.stream.edges)
        self.adapter = adapter

    @property
    def engine(self) -> Any:
        return self.adapter.impl

    def _payload(self) -> Batch:
        return self.stream.step()

    def write(self, payload: Batch) -> tuple[int, list[str]]:
        self.adapter.update(payload)
        return len(payload), []

    def point_timed(self, v: int, clock: Callable[[], float]) -> tuple[float, list[str]]:
        t0 = clock()
        self.adapter.impl.coreness_estimate(v)
        return clock() - t0, []

    def heavy_timed(self, query: tuple[str, float], clock: Callable[[], float]) -> tuple[float, list[str]]:
        t0 = clock()
        self.adapter.impl.core_members(query[1])
        return clock() - t0, []

    def estimates(self) -> dict[int, float]:
        return self.adapter.estimates()

    def space_bytes(self) -> int:
        return self.adapter.space_bytes()

    def live_edges(self) -> set[tuple[int, int]]:
        return self.stream.live_edges()

    def final_violations(self, exact: dict[int, int]) -> list[str]:
        impl = self.adapter.impl
        problems = [f"invariant: {p}" for p in impl.check_invariants()]
        if set(impl.edges()) != self.live_edges():
            problems.append("engine edge set differs from the stream's live graph")
        return problems

    def instrument(self, wrap: Callable[[Any, str, str, Any], None]) -> None:
        impl = self.adapter.impl
        wrap(impl, "update", "bench.core.update", impl.tracker)
        wrap(impl, "coreness_estimate", "bench.query.point", None)
        wrap(impl, "core_members", "bench.query.heavy", None)


def _power_law(n: int, rng: random.Random, seed: int) -> list[tuple[int, int]]:
    """A Barabási–Albert graph in a seeded random arrival order."""
    edges = barabasi_albert(n, 4, seed=seed)
    rng.shuffle(edges)
    return edges


def serve_churn_small(seed: int, scale: float) -> Workload:
    rng = random.Random(seed)
    n = max(200, int(20000 * scale))
    edges = _power_law(n, rng, seed)
    return ServiceWorkload(
        "serve-churn-small", rng, n, SlidingWindow(edges, len(edges) // 2, 10),
        "pldsopt", duplicates=2,
        min_batches=200, point_reads=20, hot_keys=True,
        heavy_every=1, heavy=(("members", 2.0),),
    )


def engine_bulk(seed: int, scale: float) -> Workload:
    rng = random.Random(seed)
    n = max(200, int(50000 * scale))
    edges = _power_law(n, rng, seed)
    return EngineWorkload(
        "engine-bulk", rng, n, HalfCycles(edges, max(1, len(edges) // 50), rng),
        "pldsopt",
        min_batches=200, point_reads=20, hot_keys=True,
        heavy_every=10, heavy=(("members", 2.0),),
    )


def serve_sharded_churn(seed: int, scale: float) -> Workload:
    rng = random.Random(seed)
    n = max(200, int(20000 * scale))
    edges = _power_law(n, rng, seed)
    size = max(10, int(500 * scale))
    return ServiceWorkload(
        "serve-sharded-churn", rng, n, SlidingWindow(edges, len(edges) // 2, size),
        "plds-sharded", duplicates=2, engine_kwargs={"shards": 4},
        min_batches=100, point_reads=20, hot_keys=True,
        heavy_every=1, heavy=(("members", 2.0),),
    )


def serve_grid_reads(seed: int, scale: float) -> Workload:
    rng = random.Random(seed)
    side = max(10, int(150 * math.sqrt(scale)))
    edges = grid_2d(side, side)
    size = max(10, int(100 * scale))
    heavy = tuple(("members", float(1 + i % 2)) for i in range(10)) + (("subgraph", 2.0),)
    return ServiceWorkload(
        "serve-grid-reads", rng, side * side, RandomChurn(edges, 0.9, size, rng),
        "pldsopt", duplicates=0,
        min_batches=100, point_reads=1000, hot_keys=False,
        heavy_every=1, heavy=heavy,
    )


#: name -> factory(seed, scale).
WORKLOADS: dict[str, Callable[[int, float], Workload]] = {
    "serve-churn-small": serve_churn_small,
    "engine-bulk": engine_bulk,
    "serve-sharded-churn": serve_sharded_churn,
    "serve-grid-reads": serve_grid_reads,
}
