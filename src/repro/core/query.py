"""Shared query surface and epoch-versioned read snapshots.

Every level-structure engine in the repo answers the same queries —
coreness estimates, core membership, core subgraphs, the densest-
subgraph estimate — from the same primitive: the per-vertex ``(level,
degree)`` pair (levels fully determine the structure; Definition 5.11
turns a level into an estimate).  Historically each engine family
hand-rolled those methods; this module collapses them into one
implementation over two host hooks:

- ``_level_items()`` — iterate ``(vertex, level, degree)`` for every
  live vertex, in the host's canonical order;
- ``_level_deg_of(v)`` — the pair for one vertex, ``None`` if absent.

On top of the shared surface sits the **epoch store** (the
asynchronous-reads model of Liu–Shun–Zablotchi, PAPERS.md): an engine
*publishes* an immutable :class:`EpochSnapshot` of its level image at
each commit point, and readers query the snapshot — wait-free, never
observing a torn mid-batch state.  Publication is copy-on-write: the
previous epoch's maps are copied (a C-speed ``dict.copy``) and only the
``touched`` vertices re-derived, so a commit pays O(n_prev + |touched|)
map work instead of a full O(n) estimate rebuild.  Publication is
opt-in — engines driven directly (the bench hot path) never publish and
pay nothing.

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

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

__all__ = ["CorenessQueries", "EpochSnapshot", "QueryView"]


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

    ``estimates`` and ``levels`` are exposed through read-only mapping
    proxies — an epoch, once published, never changes (that is the whole
    consistency contract).  Maps passed in as proxies are shared, not
    copied, so a service epoch wrapping its engine's epoch costs no map
    copy of its own.  Engine-level epochs carry just the level
    image; service-level epochs additionally carry the batch horizon
    and the degradation flag, and sharded engines record the per-shard
    epoch vector that was scatter-gathered at the commit point.  Epochs
    are published without edges; :attr:`repro.service.ServiceReader.view`
    pins the committed edge set on request, once per epoch.
    """

    epoch: int
    estimates: Mapping[int, float] = field(repr=False)
    levels: Mapping[int, int] = field(repr=False)
    #: stable per-shard epoch vector (sharded engines only).
    shard_epochs: tuple[int, ...] | None = None
    #: committed batches reflected by this epoch (service-level).
    batches_applied: int = 0
    #: was the service degraded when this epoch was published?
    degraded: bool = False
    #: committed edge set, pinned on request (``None`` as published).
    edges: frozenset[tuple[int, int]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        # A mapping proxy is taken as the hand-over of a private map
        # nobody mutates again (a fresh copy-on-write map, or another
        # epoch's map) and shared as is; anything else is copied once.
        for name in ("estimates", "levels"):
            value = getattr(self, name)
            if type(value) is not MappingProxyType:
                object.__setattr__(self, name, MappingProxyType(dict(value)))

    def _estimates_view(self) -> Mapping[int, float]:
        return self.estimates

    def level(self, v: int) -> int:
        """Level of ``v`` as of this epoch (0 for unknown vertices)."""
        return self.levels.get(v, 0)


#: What readers see before anything was ever published: the (empty)
#: construction-time state, which is trivially prefix-consistent.
EMPTY_EPOCH = EpochSnapshot(epoch=0, estimates={}, levels={})


class QueryView(CorenessQueries):
    """Mixin giving a level-structure engine the shared query surface
    plus copy-on-write epoch publication.

    Hosts provide :meth:`_level_items` / :meth:`_level_deg_of` and the
    estimate parameters ``levels_per_group`` / ``_group_pow``; the
    mixin provides every derived query, bit-identical to the previously
    hand-rolled per-engine implementations.
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

    def _level_items(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(vertex, level, degree)`` over live vertices."""
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

    def coreness_estimates(self) -> dict[int, float]:
        """Estimates for every vertex the structure has seen."""
        lpg = self.levels_per_group
        pow_table = self._group_pow
        return {
            v: (0.0 if deg == 0 else pow_table[max((lvl + 1) // lpg - 1, 0)])
            for v, lvl, deg in self._level_items()
        }

    def _estimates_view(self) -> Mapping[int, float]:
        return self.coreness_estimates()

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
        previous epoch (batch endpoints plus :attr:`last_moved`); their
        entries are re-derived on a copy of the previous epoch's maps.
        ``touched=None`` — or a pending :attr:`_levels_reshaped` flag —
        publishes from scratch.  Call this only at commit points: a
        snapshot taken mid-apply would capture exactly the torn state
        the epoch store exists to hide.
        """
        if self._levels_reshaped:
            touched = None
            self._levels_reshaped = False
        prev = self._published
        if prev is None or touched is None:
            estimates = self.coreness_estimates()
            levels = {v: lvl for v, lvl, _ in self._level_items()}
        else:
            estimates = prev.estimates.copy()
            levels = prev.levels.copy()
            lpg = self.levels_per_group
            pow_table = self._group_pow
            for v in touched:
                pair = self._level_deg_of(v)
                if pair is None:
                    estimates.pop(v, None)
                    levels.pop(v, None)
                else:
                    lvl, deg = pair
                    estimates[v] = (
                        0.0
                        if deg == 0
                        else pow_table[max((lvl + 1) // lpg - 1, 0)]
                    )
                    levels[v] = lvl
        self._epoch_serial += 1
        snap = EpochSnapshot(
            epoch=self._epoch_serial,
            estimates=MappingProxyType(estimates),
            levels=MappingProxyType(levels),
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
