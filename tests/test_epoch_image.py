"""The chunked epoch image: model-checked semantics and chunk sharing.

:class:`~repro.core.query.EpochImage` backs every published read epoch.
Two claims are pinned here without a clock:

- **semantics** — random ``evolve`` scripts agree with a plain-dict
  model after every step, and no earlier image ever changes;
- **O(|touched|) publication** — after a commit, every chunk of the new
  epoch that holds no touched vertex is the *same object* as in the
  previous epoch, and at most |touched| chunks were copied.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.plds import PLDS
from repro.core.query import CHUNK_WIDTH, EpochImage, EpochSnapshot
from repro.graphs.generators import barabasi_albert
from repro.graphs.streams import Batch
from repro.service import CoreService
from repro.shard.coordinator import Coordinator

pytestmark = pytest.mark.mvcc

#: Mostly ids in a few neighbouring chunks (so overwrites and removals
#: hit live entries), plus ids in fresh, far-away chunks up to 2**40.
ids = st.one_of(
    st.integers(0, 3 * CHUNK_WIDTH),
    st.integers(0, 2**40),
)
#: ``None`` removes the id; repeated ids within one commit are allowed.
commit = st.lists(st.tuples(ids, st.one_of(st.none(), st.integers(-3, 3))))
script = st.tuples(
    st.dictionaries(ids, st.integers(-3, 3), max_size=40),
    st.lists(commit, max_size=12),
)


def _assert_matches(image: EpochImage, model: dict) -> None:
    assert len(image) == len(model)
    assert dict(image) == model
    assert dict(image.items()) == model
    assert sorted(image.values()) == sorted(model.values())
    assert image == model and model == image
    for v, x in model.items():
        assert image[v] == x
        assert image.get(v) == x
        assert v in image
    for v in (-1, 2**41, 3 * CHUNK_WIDTH + 1):
        if v not in model:
            assert image.get(v, "absent") == "absent"
            assert v not in image
            with pytest.raises(KeyError):
                image[v]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script)
def test_evolve_scripts_match_dict_model(s):
    source, commits = s
    image = EpochImage(source)
    model = dict(source)
    history = [(image, dict(model))]
    _assert_matches(image, model)
    for changes in commits:
        image = image.evolve(changes)
        for v, x in changes:
            if x is None:
                model.pop(v, None)
            else:
                model[v] = x
        _assert_matches(image, model)
        history.append((image, dict(model)))
        # Path copying never mutates a chunk an earlier image reaches.
        for old, old_model in history:
            assert dict(old.items()) == old_model and len(old) == len(old_model)


def test_empty_image_and_item_assignment():
    empty = EpochImage()
    assert len(empty) == 0 and dict(empty) == {} and empty == {}
    assert empty.evolve([]) is empty
    assert empty.evolve([(5, None)]) is empty  # removing nothing: no copy
    one = empty.evolve([(5, 1)])
    assert dict(one) == {5: 1} and dict(empty) == {}
    with pytest.raises(TypeError):
        one[5] = 2  # type: ignore[index]
    assert dict(one.evolve([(5, None)])) == {}


def test_snapshot_images_plain_mappings_and_shares_images():
    snap = EpochSnapshot(epoch=1, estimates={1: 2.0}, levels={1: 3})
    assert type(snap.estimates) is EpochImage
    assert snap.coreness(1) == 2.0 and snap.level(1) == 3
    again = EpochSnapshot(epoch=2, estimates=snap.estimates, levels=snap.levels)
    assert again.estimates is snap.estimates and again.levels is snap.levels


# ---------------------------------------------------------------------------
# Publication shares every untouched chunk
# ---------------------------------------------------------------------------

#: Five dense blocks, one per chunk (the last at a sparse, far id), so
#: a batch inside one block moves levels there and leaves others alone.
BLOCK_BASES = [c * CHUNK_WIDTH for c in range(4)] + [2**20]
BLOCKS = [
    [(base + u, base + v) for u, v in barabasi_albert(60, 4, seed=c)]
    for c, base in enumerate(BLOCK_BASES)
]
EDGES = [e for block in BLOCKS for e in block]


def _touched(svc: CoreService, batch: Batch) -> set[int]:
    moved = svc.engine.last_moved
    assert moved is not None, "commit was not incremental"
    return set(moved) | {v for e in batch.insertions + batch.deletions for v in e}


@pytest.mark.parametrize("algorithm", ("pldsopt", "plds-sharded"))
def test_commit_copies_only_touched_chunks(algorithm):
    svc = CoreService(algorithm, n_hint=4 * len(EDGES))
    svc.apply_batch(Batch(insertions=EDGES))
    batches = [
        Batch(deletions=BLOCKS[0]),
        Batch(insertions=BLOCKS[0]),
        Batch(deletions=BLOCKS[2][:100]),
        Batch(insertions=BLOCKS[2][:100]),
    ]
    shared_total = copied_total = 0
    for batch in batches:
        prev = svc._published
        svc.apply_batch(batch)
        new = svc._published
        touched = _touched(svc, batch)
        touched_chunks = {v // CHUNK_WIDTH for v in touched}
        # The service epoch wraps the engine's images without a copy.
        assert new.estimates is svc.engine.read_view().estimates
        for name in ("estimates", "levels"):
            old_chunks = getattr(prev, name)._chunks
            new_chunks = getattr(new, name)._chunks
            copied = 0
            for c, chunk in new_chunks.items():
                if c not in touched_chunks:
                    assert chunk is old_chunks[c], (name, c)
                    shared_total += 1
                elif chunk is not old_chunks.get(c):
                    copied += 1
            assert copied <= len(touched)
            copied_total += copied
            assert set(old_chunks) - set(new_chunks) <= touched_chunks
    assert shared_total > 0, "workload left no chunk untouched"
    assert copied_total > 0, "workload moved no level"


def test_pinned_view_shares_the_published_images():
    svc = CoreService("pldsopt", n_hint=256)
    svc.apply_batch(Batch(insertions=BLOCKS[0]))
    published = svc._published
    view = svc.reader().view
    assert view.edges is not None
    assert view.estimates is published.estimates
    assert view.levels is published.levels


@pytest.mark.shard
def test_kernel_reshape_forces_full_sharded_publish():
    coord = Coordinator(64, shards=3)
    coord.initialize([(0, 1), (1, 2), (2, 3)])
    first = coord.publish_epoch(None)
    v = 40
    kernel = coord.kernels[coord.partitioner.owner(v)]
    kernel.insert_vertices([v])
    # Nothing touched, but a kernel re-levelled outside batch accounting.
    snap = coord.publish_epoch(set())
    assert v not in first.levels and snap.levels[v] == 0
    assert coord.read_epoch == snap.epoch == first.epoch + 1


@pytest.mark.shard
@pytest.mark.parametrize("shards", (1, 2, 4))
def test_sharded_rebuild_clears_last_moved(shards):
    # A 12-edge path on n_hint=4 outgrows the hint in its first batch,
    # so the coordinated Section-5.9 rebuild runs inside update().
    path = [(i, i + 1) for i in range(12)]
    mono = PLDS(4)
    mono.update(Batch(insertions=path))
    coord = Coordinator(4, shards=shards)
    coord.update(Batch(insertions=path[:2]))
    coord.publish_epoch(coord.last_moved)
    hint = coord.n_hint
    coord.update(Batch(insertions=path[2:]))
    assert coord.n_hint > hint, "the batch did not rebuild"
    assert mono.last_moved is None
    assert coord.last_moved is None
    snap = coord.publish_epoch(coord.last_moved)
    assert dict(snap.levels) == {r.id: r.level for r in coord._records()}
    assert dict(snap.estimates) == coord.coreness_estimates()


# ---------------------------------------------------------------------------
# Incremental publication equals a full publish
# ---------------------------------------------------------------------------

_N = 12

_ENGINES = [
    pytest.param("plds", {}, id="plds"),
    pytest.param("pldsopt", {}, id="pldsopt"),
    pytest.param("lds", {}, id="lds"),
] + [
    pytest.param(
        "plds-sharded", {"shards": s}, id=f"plds-sharded-{s}", marks=pytest.mark.shard
    )
    for s in (1, 4)
]

_pair = st.tuples(st.integers(0, _N - 1), st.integers(0, _N - 1))
#: A clique size, then batches of (toggled pairs, vertices to isolate):
#: absent pairs are inserted, present ones deleted, and every live edge
#: of an isolated vertex is deleted — so vertices fall to degree 0 and
#: later toggles bring them back.
_streams = st.tuples(
    st.integers(0, _N),
    st.lists(
        st.tuples(
            st.lists(_pair, max_size=10),
            st.lists(st.integers(0, _N - 1), max_size=3),
        ),
        min_size=1,
        max_size=8,
    ),
)


def _stream_batches(stream) -> list[Batch]:
    clique, steps = stream
    first = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    live = set(first)
    out = [Batch(insertions=first)]
    for pairs, isolate in steps:
        ins: dict[tuple[int, int], None] = {}
        dels: dict[tuple[int, int], None] = {}
        for u, v in pairs:
            if u != v:
                e = (min(u, v), max(u, v))
                (dels if e in live else ins)[e] = None
        for x in isolate:
            for e in live:
                if x in e:
                    dels[e] = None
        live |= set(ins)
        live -= set(dels)
        out.append(Batch(insertions=list(ins), deletions=list(dels)))
    return out


@pytest.mark.parametrize("algorithm, kwargs", _ENGINES)
@settings(max_examples=40, deadline=None)
@given(stream=_streams)
def test_incremental_publish_equals_full_publish(algorithm, kwargs, stream):
    svc = CoreService(algorithm, n_hint=_N, **kwargs)
    engine = svc.engine
    for batch in _stream_batches(stream):
        svc.apply_batch(batch)
        published = svc._published
        assert dict(published.estimates) == engine.coreness_estimates()
        assert dict(published.levels) == {
            r.id: r.level for r in engine._records()
        }
