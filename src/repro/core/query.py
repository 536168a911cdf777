"""Shared query surface and epoch-versioned read snapshots.

Every level-structure engine in the repo answers the same queries —
coreness estimates, core membership, core subgraphs, the densest-
subgraph estimate — from the same primitive: the per-vertex ``(level,
degree)`` pair (levels fully determine the structure; Definition 5.11
turns a level into an estimate).  Historically each engine family
hand-rolled those methods; this module collapses them into one
implementation over two host hooks:

- ``_records()`` — the live vertex records (objects with ``id``,
  ``level`` and ``deg`` attributes), in the host's canonical order;
- ``_level_deg_of(v)`` — the pair for one vertex, ``None`` if absent.

Threshold queries never materialise the estimate map.  Definition 5.11
makes an estimate a non-decreasing step function of the level, so
``estimate >= k`` is a level test, ``level >= L(k)`` plus a non-zero
degree, with ``L(k)`` computed once per query by
:meth:`QueryView.level_cut`; ``core_members`` and ``densest_estimate``
walk the records against that cut (``docs/cost_model.md``, "Threshold
queries in level space").

On top of the shared surface sits the **epoch store** (the
asynchronous-reads model of Liu–Shun–Zablotchi, PAPERS.md): an engine
*publishes* an immutable :class:`EpochSnapshot` of its level image at
each commit point, and readers query the snapshot — wait-free, never
observing a torn mid-batch state.  Each image is an :class:`EpochImage`:
values stored in chunks of ``CHUNK_WIDTH`` consecutive vertex ids, so
publication is *path copying* — the next epoch copies the outer chunk
table (n / ``CHUNK_WIDTH`` references), copies each chunk holding a
``touched`` vertex whose entry changed, once, and shares every other
chunk with the previous epoch.  A commit pays O(n / W + W·|touched|)
reference copies and no full-map copy.  Publication is opt-in — engines
driven directly (the bench hot path) never publish and pay nothing.

Two pieces of bookkeeping make incremental publication safe:

- :attr:`QueryView.last_moved` — the vertex set moved by the last
  ``update()`` (``None`` means "unknown / everything", the conservative
  full-publish sentinel);
- :attr:`QueryView._levels_reshaped` — set by any operation that
  re-levels vertices outside normal batch accounting (the Section-5.9
  rebuild re-inserts *every* edge; vertex insertion/deletion drops
  records wholesale), forcing the next ``last_moved`` to ``None``.

Both live as *class-attribute defaults* (instance slots are only
assigned on use): ``PLDS._rebuild`` re-runs ``__init__`` in place, and
state initialized there would silently reset the epoch counter on every
rebuild.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Iterator, TypeVar, cast

__all__ = [
    "CHUNK_WIDTH",
    "CorenessQueries",
    "EpochImage",
    "EpochSnapshot",
    "QueryView",
]

_V = TypeVar("_V")

#: ``log2`` of the chunk width.  Sized by measurement: narrower chunks
#: make a commit cheaper (fewer entries copied per changed chunk) and
#: full-image walks (``core_members``) dearer; 256 ids keeps the walk
#: within ~5% of a flat dict (``docs/cost_model.md``).
_SHIFT = 8
#: Consecutive vertex ids per :class:`EpochImage` chunk.
CHUNK_WIDTH = 1 << _SHIFT

_MISSING = object()


class EpochImage(Mapping[int, _V]):
    """Immutable ``int``-keyed mapping stored as chunks of consecutive ids.

    Chunk ``c`` holds the entries of ids ``c * CHUNK_WIDTH`` up to
    ``(c + 1) * CHUNK_WIDTH - 1``; the outer table is a dict, so sparse
    and very large ids cost only the chunks they occupy.  An image is
    never mutated once built: :meth:`evolve` path-copies, returning a
    new image that shares every chunk it did not change with this one.
    Supports the read-only ``Mapping`` protocol (``[]``, ``get``, ``in``,
    ``len``, ``items()``, ``dict(image)``, ``==``); item assignment
    raises ``TypeError``.
    """

    __slots__ = ("_chunks", "_len")

    def __init__(self, source: Mapping[int, _V] | None = None) -> None:
        chunks: dict[int, dict[int, _V]] = {}
        for v, x in source.items() if source is not None else ():
            c = v >> _SHIFT
            chunk = chunks.get(c)
            if chunk is None:
                chunk = chunks[c] = {}
            chunk[v] = x
        self._chunks = chunks
        self._len = sum(map(len, chunks.values()))

    @classmethod
    def _wrap(
        cls, chunks: dict[int, dict[int, _V]], size: int
    ) -> "EpochImage[_V]":
        """Adopt a chunk table nobody else mutates (no copy)."""
        image = cls.__new__(cls)
        image._chunks = chunks
        image._len = size
        return image

    def evolve(self, changes: Iterable[tuple[int, "_V | None"]]) -> "EpochImage[_V]":
        """A new image with ``changes`` applied; ``self`` is unchanged.

        Each change is ``(id, value)``; a ``None`` value removes the id
        (images never store ``None``).  Later changes to the same id
        win.  Only the outer table and the chunks whose entries really
        change are copied — once each — so the work is O(n / W) plus
        O(W) per changed chunk; with no effective change ``self`` is
        returned as is.
        """
        chunks = self._chunks
        fresh: dict[int, dict[int, _V]] | None = None
        size = self._len
        for v, x in changes:
            c = v >> _SHIFT
            chunk = chunks.get(c)
            cur = _MISSING if chunk is None else chunk.get(v, _MISSING)
            if x is None:
                if cur is _MISSING:
                    continue
            elif cur is not _MISSING and cur == x:
                continue
            if fresh is None:
                chunks = dict(chunks)
                fresh = {}
            if c not in fresh:
                chunk = fresh[c] = chunks[c] = {} if chunk is None else chunk.copy()
            if x is None:
                del chunk[v]
                size -= 1
            else:
                if cur is _MISSING:
                    size += 1
                chunk[v] = x
        if fresh is None:
            return self
        for c, chunk in fresh.items():
            if not chunk:
                del chunks[c]
        return self._wrap(chunks, size)

    def __getitem__(self, v: int) -> _V:
        return self._chunks[v >> _SHIFT][v]

    def get(self, v: int, default=None):
        chunk = self._chunks.get(v >> _SHIFT)
        return default if chunk is None else chunk.get(v, default)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self._chunks.values())

    def items(self) -> ItemsView[int, _V]:
        return _ImageItems(self)

    def values(self) -> ValuesView[_V]:
        return _ImageValues(self)


# Chunk-wise views: the generic Mapping views would fetch every key
# through __getitem__.


class _ImageItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        chunks = cast(EpochImage, self._mapping)._chunks
        return chain.from_iterable(map(dict.items, chunks.values()))


class _ImageValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        chunks = cast(EpochImage, self._mapping)._chunks
        return chain.from_iterable(map(dict.values, chunks.values()))


class CorenessQueries:
    """Query algebra over a coreness-estimate mapping.

    Hosts implement :meth:`_estimates_view`; everything else — point
    lookups, membership thresholds, the densest-subgraph estimate — is
    derived here, once, for engines, epoch snapshots, and service
    snapshots alike.
    """

    def _estimates_view(self) -> Mapping[int, float]:
        raise NotImplementedError

    def coreness(self, v: int) -> float:
        """Coreness estimate of ``v`` (0.0 for unknown vertices)."""
        return float(self._estimates_view().get(v, 0.0))

    def coreness_map(self) -> dict[int, float]:
        """Estimates for every vertex the structure has seen."""
        return dict(self._estimates_view())

    def core_members(self, k: float) -> set[int]:
        """Vertices whose coreness estimate is at least ``k``."""
        return {v for v, c in self._estimates_view().items() if c >= k}

    def densest_estimate(self) -> tuple[float, set[int]]:
        """``2(2+ε)``-approximate max subgraph density: ``k̂_max / 2``
        plus the witness set achieving the maximum estimate (same
        contract as :func:`repro.core.densest.densest_subgraph_estimate`)."""
        est = self._estimates_view()
        best = 0.0
        for c in est.values():
            if c > best:
                best = c
        if best == 0.0:
            return 0.0, set()
        return best / 2.0, {v for v, c in est.items() if c == best}


@dataclass(frozen=True)
class EpochSnapshot(CorenessQueries):
    """One immutable published read epoch.

    ``estimates`` and ``levels`` are immutable :class:`EpochImage` maps —
    an epoch, once published, never changes (that is the whole
    consistency contract).  Images passed in are shared, not copied, so
    a service epoch wrapping its engine's epoch costs no map copy of its
    own, and consecutive epochs share every chunk the commit between
    them left alone.  Engine-level epochs carry just the level
    image; service-level epochs additionally carry the batch horizon
    and the degradation flag.  Epochs are published without edges;
    :attr:`repro.service.ServiceReader.view` pins the committed edge set
    on request, once per epoch.
    """

    epoch: int
    estimates: EpochImage[float] = field(repr=False)
    levels: EpochImage[int] = field(repr=False)
    #: committed batches reflected by this epoch (service-level).
    batches_applied: int = 0
    #: was the service degraded when this epoch was published?
    degraded: bool = False
    #: committed edge set, pinned on request (``None`` as published).
    edges: frozenset[tuple[int, int]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        # An image is immutable and shared as is; any other mapping
        # (the full-sweep fallback, the empty epoch) is imaged once.
        for name in ("estimates", "levels"):
            value = getattr(self, name)
            if type(value) is not EpochImage:
                object.__setattr__(self, name, EpochImage(value))

    def _estimates_view(self) -> Mapping[int, float]:
        return self.estimates

    def coreness(self, v: int) -> float:
        # Inlined EpochImage.get: this is the point-read hot path.
        chunk = self.estimates._chunks.get(v >> _SHIFT)
        return 0.0 if chunk is None else float(chunk.get(v, 0.0))

    def coreness_map(self) -> dict[int, float]:
        # dict(image) would fetch every key through __getitem__.
        return dict(self.estimates.items())

    def core_members(self, k: float) -> set[int]:
        # Walk the chunks directly: as fast as a flat dict scan.
        chunks = self.estimates._chunks.values()
        return {v for chunk in chunks for v, c in chunk.items() if c >= k}

    def level(self, v: int) -> int:
        """Level of ``v`` as of this epoch (0 for unknown vertices)."""
        return self.levels.get(v, 0)


#: What readers see before anything was ever published: the (empty)
#: construction-time state, which is trivially prefix-consistent.
EMPTY_EPOCH = EpochSnapshot(
    epoch=0, estimates=EpochImage(), levels=EpochImage()
)


class QueryView(CorenessQueries):
    """Mixin giving a level-structure engine the shared query surface
    plus path-copied epoch publication.

    Hosts provide :meth:`_records` / :meth:`_level_deg_of` and the
    estimate parameters ``levels_per_group`` / ``_group_pow``; the
    mixin provides every derived query.  Point estimates and the full
    estimate map apply Definition 5.11 per vertex; the threshold
    queries (:meth:`core_members`, :meth:`densest_estimate`) compare
    each record's level against one :meth:`level_cut` instead, with
    answers bit-identical to filtering the float estimates.
    """

    # Class-attribute defaults, NOT __init__ state: PLDS._rebuild()
    # re-runs __init__ in place and must not reset the epoch store.
    _published: EpochSnapshot | None = None
    _epoch_serial: int = 0
    #: vertices moved by the last update(); ``None`` = publish fully.
    last_moved: "set[int] | frozenset[int] | None" = None
    #: set by rebuild / vertex insertion / vertex deletion: the level
    #: image was reshaped outside batch move accounting.
    _levels_reshaped: bool = False

    # -- host hooks ----------------------------------------------------

    def _records(self) -> Iterable[Any]:
        """The live vertex records, each with ``id``, ``level``, ``deg``
        (a fresh iterable per call; callers iterate it once)."""
        raise NotImplementedError

    def _level_deg_of(self, v: int) -> tuple[int, int] | None:
        """``(level, degree)`` of ``v``, or ``None`` if absent."""
        raise NotImplementedError

    # -- the shared query surface --------------------------------------

    def coreness_estimate(self, v: int) -> float:
        """``k̂(v) = (1+δ)^{max(⌊(ℓ(v)+1)/levels_per_group⌋ - 1, 0)}``
        (Definition 5.11).

        Degree-0 vertices (necessarily at level 0) estimate 0, matching
        the paper's experimental convention (Section 6.2).
        """
        pair = self._level_deg_of(v)
        if pair is None or pair[1] == 0:
            return 0.0
        exponent = max((pair[0] + 1) // self.levels_per_group - 1, 0)
        return self._group_pow[exponent]

    def coreness(self, v: int) -> float:
        """Coreness estimate of ``v`` (0.0 for unknown vertices): the
        point path, one record read instead of the whole estimate map."""
        return self.coreness_estimate(v)

    def coreness_estimates(self) -> dict[int, float]:
        """Estimates for every vertex the structure has seen."""
        lpg = self.levels_per_group
        pow_table = self._group_pow
        return {
            r.id: (
                0.0 if r.deg == 0 else pow_table[max((r.level + 1) // lpg - 1, 0)]
            )
            for r in self._records()
        }

    def _estimates_view(self) -> Mapping[int, float]:
        return self.coreness_estimates()

    def level_cut(self, k: float) -> int | None:
        """The inverse of Definition 5.11: which records have estimate ``>= k``.

        Returns ``None`` when no vertex qualifies (``k`` is NaN or above
        every ``(1+δ)^e`` in the table), ``-1`` when every vertex does
        (``k <= 0``: degree-0 vertices estimate 0), and otherwise a level
        ``L >= 0`` such that ``estimate(v) >= k`` exactly when
        ``level(v) >= L`` and ``v`` has non-zero degree.  With ``e`` the
        first exponent whose ``(1+δ)^e >= k`` (a bisection of the
        non-decreasing power table), ``L = (e+1)·levels_per_group - 1``
        for ``e >= 1``, and ``L = 0`` for ``e == 0``, where the
        ``max(·, 0)`` clamp puts every non-zero-degree vertex at
        ``(1+δ)^0 >= k``.
        """
        if k <= 0:
            return -1
        pow_table = self._group_pow
        e = bisect_left(pow_table, k)
        if e == len(pow_table) or k != k:
            return None
        return (e + 1) * self.levels_per_group - 1 if e else 0

    def core_members(self, k: float) -> set[int]:
        """Vertices whose coreness estimate is at least ``k``."""
        cut = self.level_cut(k)
        if cut is None:
            return set()
        if cut < 0:
            return {r.id for r in self._records()}
        return {r.id for r in self._records() if r.level >= cut and r.deg}

    def densest_estimate(self) -> tuple[float, set[int]]:
        """``k̂_max / 2`` and its witness set, as
        :meth:`CorenessQueries.densest_estimate`: the largest estimate is
        that of the highest non-zero-degree level, and the witness is
        the cut at that estimate."""
        top = -1
        for r in self._records():
            if r.level > top and r.deg:
                top = r.level
        if top < 0:
            return 0.0, set()
        best = self._group_pow[max((top + 1) // self.levels_per_group - 1, 0)]
        return best / 2.0, self.core_members(best)

    def core_subgraph(self, k: int) -> tuple[set[int], list[tuple[int, int]]]:
        """The exact k-core of the engine's current edge set (peeled)."""
        from ..static_kcore.subgraphs import k_core_subgraph

        return k_core_subgraph(self.edges(), k)

    # -- epoch publication ---------------------------------------------

    def publish_epoch(
        self, touched: Iterable[int] | None = None
    ) -> EpochSnapshot:
        """Publish the current level image as a new immutable epoch.

        ``touched`` names the vertices whose entries may differ from the
        previous epoch (:attr:`last_moved` plus the batch endpoints whose
        degree crossed zero; see ``CoreService._commit_touched``); their
        entries are re-derived and path-copied into the previous epoch's
        images (:meth:`EpochImage.evolve`), every other chunk shared.
        ``touched=None`` — or a pending :attr:`_levels_reshaped` flag —
        publishes from scratch.  Call this only at commit points: a
        snapshot taken mid-apply would capture exactly the torn state
        the epoch store exists to hide.
        """
        if self._levels_reshaped:
            touched = None
            self._levels_reshaped = False
        prev = self._published
        lpg = self.levels_per_group
        pow_table = self._group_pow
        # An empty previous image (the initial bulk load) gains nothing
        # from path copying: build it in the faster single pass.
        if prev is None or touched is None or not prev.levels:
            est_chunks: dict[int, dict[int, float]] = {}
            lvl_chunks: dict[int, dict[int, int]] = {}
            for r in self._records():
                v, lvl, deg = r.id, r.level, r.deg
                c = v >> _SHIFT
                lc = lvl_chunks.get(c)
                if lc is None:
                    lc = lvl_chunks[c] = {}
                    ec = est_chunks[c] = {}
                else:
                    ec = est_chunks[c]
                ec[v] = (
                    0.0
                    if deg == 0
                    else pow_table[max((lvl + 1) // lpg - 1, 0)]
                )
                lc[v] = lvl
            size = sum(map(len, lvl_chunks.values()))
            estimates = EpochImage._wrap(est_chunks, size)
            levels = EpochImage._wrap(lvl_chunks, size)
        else:
            est_changes: list[tuple[int, float | None]] = []
            lvl_changes: list[tuple[int, int | None]] = []
            for v in touched:
                pair = self._level_deg_of(v)
                if pair is None:
                    est_changes.append((v, None))
                    lvl_changes.append((v, None))
                else:
                    lvl, deg = pair
                    est = (
                        0.0
                        if deg == 0
                        else pow_table[max((lvl + 1) // lpg - 1, 0)]
                    )
                    est_changes.append((v, est))
                    lvl_changes.append((v, lvl))
            estimates = prev.estimates.evolve(est_changes)
            levels = prev.levels.evolve(lvl_changes)
        self._epoch_serial += 1
        snap = EpochSnapshot(
            epoch=self._epoch_serial, estimates=estimates, levels=levels
        )
        self._published = snap
        return snap

    def read_view(self) -> EpochSnapshot:
        """The last published epoch (wait-free; never blocks on an
        in-flight update).  Before any publication, the empty epoch-0
        construction state."""
        pub = self._published
        return pub if pub is not None else EMPTY_EPOCH

    @property
    def read_epoch(self) -> int:
        """Serial of the last published epoch (0 = never published)."""
        return self._epoch_serial
