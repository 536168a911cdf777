"""Update-stream generation: the paper's Ins / Del / Mix experiments.

Section 6 ("Ins/Del/Mix Experiments") defines three batched-update
protocols:

- **Ins**: starting from an empty graph, all edges are inserted in batches
  of size ``|B|`` (in a random permutation order, or temporal order for
  temporal graphs).
- **Del**: starting from the full graph, all edges are deleted in batches
  of size ``|B|``.
- **Mix**: starting from the graph minus a random set ``I`` of ``|B|/2``
  edges, one batch containing the insertions ``I`` plus ``|B|/2`` random
  deletions ``D`` (disjoint from ``I``) is applied.

This module also provides batch *preprocessing* (Section 8): deduplicating
updates per edge (latest timestamp wins) and filtering to valid updates
(insert only non-existent edges, delete only existing ones); the batch
contract itself (:func:`check_batch`, called once at each engine and
service entry); plus the write-ahead :class:`UpdateJournal` the serving
layer uses for transactional batch application and crash recovery.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Protocol, Sequence

from .dynamic_graph import canonical_edge

__all__ = [
    "EdgeUpdate",
    "Batch",
    "JournalRecord",
    "JournalTruncation",
    "UpdateJournal",
    "insertion_batches",
    "deletion_batches",
    "mixed_batch",
    "sliding_window_batches",
    "preprocess_batch",
    "check_batch",
]


class _EdgeUpdateFields(NamedTuple):
    u: int
    v: int
    is_insert: bool
    timestamp: int = 0


class EdgeUpdate(_EdgeUpdateFields):
    """A single timestamped edge update.

    Vertex ids are non-negative by construction — a negative id is a
    corrupted update, not a graph mutation, and is rejected here so it
    cannot travel any further down the pipeline.  An immutable tuple
    type, built once per raw update without the per-field
    ``object.__setattr__`` calls of a frozen dataclass.
    """

    __slots__ = ()

    def __new__(
        cls, u: int, v: int, is_insert: bool, timestamp: int = 0
    ) -> "EdgeUpdate":
        self = tuple.__new__(cls, (u, v, is_insert, timestamp))
        if u < 0 or v < 0:
            raise ValueError(f"negative vertex id in update {self!r}")
        return self

    @property
    def edge(self) -> tuple[int, int]:
        return canonical_edge(self.u, self.v)


@dataclass
class Batch:
    """A batch of *unique, valid* edge updates (paper Section 8)."""

    insertions: list[tuple[int, int]] = field(default_factory=list)
    deletions: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.insertions) + len(self.deletions)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Batch(ins={len(self.insertions)}, del={len(self.deletions)})"


def _chunks(seq: Sequence[tuple[int, int]], size: int) -> list[list[tuple[int, int]]]:
    return [list(seq[i : i + size]) for i in range(0, len(seq), size)]


def insertion_batches(
    edges: Sequence[tuple[int, int]],
    batch_size: int,
    seed: int = 0,
    temporal: bool = False,
) -> list[Batch]:
    """Ins protocol: all edges inserted in batches of ``batch_size``.

    ``temporal=True`` keeps the given edge order (the paper does this for
    wiki/stackoverflow); otherwise a seeded random permutation is used.
    """
    order = list(edges)
    if not temporal:
        random.Random(seed).shuffle(order)
    return [Batch(insertions=chunk) for chunk in _chunks(order, batch_size)]


def deletion_batches(
    edges: Sequence[tuple[int, int]],
    batch_size: int,
    seed: int = 0,
    temporal: bool = False,
) -> list[Batch]:
    """Del protocol: all edges deleted in batches of ``batch_size``."""
    order = list(edges)
    if not temporal:
        random.Random(seed + 1).shuffle(order)
    return [Batch(deletions=chunk) for chunk in _chunks(order, batch_size)]


def mixed_batch(
    edges: Sequence[tuple[int, int]],
    batch_size: int,
    seed: int = 0,
) -> tuple[list[tuple[int, int]], Batch]:
    """Mix protocol: returns ``(initial_edges, batch)``.

    ``initial_edges`` is the graph minus a random held-out set ``I`` of
    ``batch_size // 2`` edges; the batch inserts ``I`` and deletes a
    disjoint random set ``D`` of ``batch_size // 2`` existing edges.
    """
    rng = random.Random(seed + 2)
    half = min(batch_size // 2, len(edges) // 2)
    order = list(edges)
    rng.shuffle(order)
    held_out = order[:half]          # to be inserted by the batch
    initial = order[half:]           # present initially
    deletions = initial[:half]       # to be deleted by the batch
    return initial, Batch(insertions=held_out, deletions=deletions)


def sliding_window_batches(
    edges: Sequence[tuple[int, int]],
    window: int,
    batch_size: int,
) -> list[Batch]:
    """Temporal sliding-window protocol.

    Models the paper's temporal graphs (wiki, stackoverflow): edges
    arrive in their given (temporal) order and expire once more than
    ``window`` newer edges have arrived.  Each batch inserts the next
    ``batch_size`` edges and deletes the edges that fall out of the
    window — a realistic mixed workload whose live graph size stays
    roughly constant at ``window``.
    """
    if window < 1 or batch_size < 1:
        raise ValueError("window and batch_size must be >= 1")
    batches: list[Batch] = []
    live: list[tuple[int, int]] = []
    for i in range(0, len(edges), batch_size):
        arriving = list(edges[i : i + batch_size])
        live.extend(arriving)
        expiring: list[tuple[int, int]] = []
        while len(live) > window:
            expiring.append(live.pop(0))
        # An edge that arrives and expires within the same batch would be
        # an insert+delete of the same edge; drop both halves.
        arrive_set = set(arriving)
        cancelled = [e for e in expiring if e in arrive_set]
        if cancelled:
            cancel = set(cancelled)
            arriving = [e for e in arriving if e not in cancel]
            expiring = [e for e in expiring if e not in cancel]
        batches.append(Batch(insertions=arriving, deletions=expiring))
    return batches


class EdgeLookup(Protocol):
    """Anything answering edge membership (a graph, an engine, a service)."""

    def has_edge(self, u: int, v: int) -> bool: ...


#: :func:`check_batch`'s batched membership step: canonical edges in,
#: ``(how many are present, a per-edge result for the caller)`` out.
EdgeMembership = Callable[[Iterable[tuple[int, int]]], tuple[int, Any]]


def preprocess_batch(
    graph: EdgeLookup,
    updates: Iterable[EdgeUpdate],
) -> Batch:
    """Deduplicate and validate a raw update sequence against ``graph``.

    Per Section 8: keep the latest update per edge, then keep only
    insertions of non-existent edges and deletions of existing edges,
    in sorted edge order.  Self-loops (invalid in the paper's
    simple-graph setting) are dropped outright.  Insertions and
    deletions within the returned batch are therefore disjoint and
    individually valid.

    "Latest" is the largest ``(timestamp, arrival position)``: of
    updates sharing an edge and a timestamp, the one submitted last
    wins, so equal-timestamp insert/delete pairs resolve
    deterministically.  One pass in arrival order finds it; only the
    surviving edges are sorted.
    """
    latest: dict[tuple[int, int], EdgeUpdate] = {}
    for upd in updates:
        u, v = upd.u, upd.v
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        prev = latest.get(e)
        if prev is None or upd.timestamp >= prev.timestamp:
            latest[e] = upd
    has_edge = graph.has_edge
    batch = Batch()
    for e in sorted(latest):
        if latest[e].is_insert:
            if not has_edge(*e):
                batch.insertions.append(e)
        elif has_edge(*e):
            batch.deletions.append(e)
    return batch


def check_batch(
    batch: Batch, lookup: EdgeMembership
) -> tuple[dict[tuple[int, int], None], dict[tuple[int, int], None], Any, Any]:
    """Check the Section-8 batch contract before anything mutates.

    Raises ``ValueError`` on the first negative vertex id, self-loop,
    duplicate insertion or deletion, edge both inserted and deleted,
    insertion of a present edge or deletion of a missing one, in batch
    order (insertions, then deletions).

    Membership in the pre-batch graph is one batched step per phase
    (the paper's Section-2 batch hash-table model): ``lookup`` is called
    once per non-empty phase with that phase's canonical edges, as an
    insertion-ordered dict, and answers ``(present, found)`` — how many
    of them the graph holds, and whatever per-edge result the caller
    wants handed back (a :class:`~repro.core.plds.PLDS` returns its
    endpoint records).  A phase that breaks a structural rule at some
    edge is looked up only up to that edge, and only a rejected phase
    is asked again, one edge at a time, to name the first offender.

    Returns the canonical insertions and deletions as insertion-ordered
    dicts (a pair that is already a canonical tuple is kept as the
    caller's object), then each phase's ``found`` (``None`` for an
    empty phase).
    """
    ins: dict[tuple[int, int], None] = {}
    dels: dict[tuple[int, int], None] = {}
    found = []
    for edges, seen, kind in (
        (batch.insertions, ins, "insertion"),
        (batch.deletions, dels, "deletion"),
    ):
        inserting = seen is ins
        broken = None
        for e in edges:
            u, v = e
            if u < 0 or v < 0:
                broken = f"negative vertex id in {kind} ({u},{v})"
                break
            if u == v:
                broken = f"self-loop ({u},{v}) in batch"
                break
            if u > v or type(e) is not tuple:
                e = (u, v) if u < v else (v, u)
            if e in seen:
                broken = f"duplicate {kind} {e} in batch"
                break
            if not inserting and e in ins:
                broken = f"edge {e} both inserted and deleted in batch"
                break
            seen[e] = None
        result = None
        if seen:
            # The edges before ``broken`` come first in batch order, so
            # a present insertion or missing deletion among them wins.
            present, result = lookup(seen)
            if present != (0 if inserting else len(seen)):
                for e in seen:
                    if bool(lookup((e,))[0]) is inserting:
                        raise ValueError(
                            f"insertion of existing edge {e}"
                            if inserting
                            else f"deletion of missing edge {e}"
                        )
        if broken is not None:
            raise ValueError(broken)
        found.append(result)
    return ins, dels, found[0], found[1]


# ----------------------------------------------------------------------
# Write-ahead update journal (transactional serving, crash recovery)
# ----------------------------------------------------------------------


_JSON_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class JournalTruncation:
    """Where a corrupt journal was cut and what the prefix preserved.

    Attached to a journal loaded with ``UpdateJournal.load(path,
    recover=True)``; ``line``/``column`` point at the first byte of the
    record that failed to parse (1-based, the convention ``json`` error
    messages use), ``detail`` is the underlying parse error.
    """

    records: int
    committed: int
    line: int
    column: int
    detail: str


@dataclass
class JournalRecord:
    """One journaled batch: the update set plus its transaction status.

    ``status`` follows write-ahead-log semantics: a batch is journaled as
    ``"pending"`` *before* the engine sees it, then marked
    ``"committed"`` once the engine accepted it (the service then updates
    its committed edge set and publishes the new epoch), or
    ``"aborted"`` when every apply attempt failed and the service
    rolled back.  Replaying the committed prefix of a journal
    reconstructs the exact pre-crash batch sequence.
    """

    seq: int
    insertions: tuple[tuple[int, int], ...]
    deletions: tuple[tuple[int, int], ...]
    status: str = "pending"

    def batch(self) -> Batch:
        return Batch(
            insertions=[tuple(e) for e in self.insertions],
            deletions=[tuple(e) for e in self.deletions],
        )


class UpdateJournal:
    """An append-only write-ahead log of served batches.

    The serving layer journals every batch before applying it and
    settles the record afterwards (:meth:`commit` / :meth:`abort`); the
    committed prefix is therefore always a faithful, replayable history
    of the engine's state.  :meth:`to_json_dict` / :meth:`from_json_dict`
    round-trip the log through JSON so a crashed process can be rebuilt
    from disk (``CoreService.from_journal``).
    """

    def __init__(self) -> None:
        self.records: list[JournalRecord] = []
        #: set when this journal was loaded with ``recover=True`` from a
        #: corrupt file: the cut point and what the prefix preserved.
        self.truncation: JournalTruncation | None = None

    def __len__(self) -> int:
        return len(self.records)

    def begin(self, batch: Batch) -> JournalRecord:
        """Append a ``pending`` record for ``batch`` (the write-ahead step)."""
        record = JournalRecord(
            seq=len(self.records) + 1,
            insertions=tuple(tuple(e) for e in batch.insertions),
            deletions=tuple(tuple(e) for e in batch.deletions),
        )
        self.records.append(record)
        return record

    def commit(self, record: JournalRecord) -> None:
        record.status = "committed"

    def abort(self, record: JournalRecord) -> None:
        record.status = "aborted"

    def committed_batches(self) -> list[Batch]:
        """The replayable history: committed batches in sequence order."""
        return [r.batch() for r in self.records if r.status == "committed"]

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "records": [
                {
                    "seq": r.seq,
                    "insertions": [list(e) for e in r.insertions],
                    "deletions": [list(e) for e in r.deletions],
                    "status": r.status,
                }
                for r in self.records
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "UpdateJournal":
        if data.get("format") != 1:
            raise ValueError("unsupported journal format")
        journal = cls()
        for raw in data["records"]:
            if raw["status"] not in ("pending", "committed", "aborted"):
                raise ValueError(f"unknown journal status {raw['status']!r}")
            journal.records.append(
                JournalRecord(
                    seq=int(raw["seq"]),
                    insertions=tuple(
                        (int(u), int(v)) for u, v in raw["insertions"]
                    ),
                    deletions=tuple(
                        (int(u), int(v)) for u, v in raw["deletions"]
                    ),
                    status=raw["status"],
                )
            )
        return journal

    def dump(self, path: str) -> None:
        """Write the journal as JSON (one crash-recovery restore point)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str, recover: bool = False) -> "UpdateJournal":
        """Load a dumped journal, tolerating a corrupt/truncated tail.

        A crash mid-:meth:`dump` leaves a file that parses only up to
        some cut point.  The strict default raises ``ValueError`` naming
        the path, the cut point (line:column), and how many intact
        records a recovery would keep — never a traceback through
        ``json``.  ``recover=True`` instead returns a journal holding
        the intact record prefix, with :attr:`truncation` describing
        what was cut.
        """
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            journal = cls.from_json_dict(json.loads(text))
        except ValueError as exc:
            prefix, truncation = cls._recover_prefix(text, str(exc))
            if not recover:
                raise ValueError(
                    f"journal {path} is corrupt at line {truncation.line} "
                    f"column {truncation.column} ({truncation.detail}); "
                    f"{truncation.records} intact records "
                    f"({truncation.committed} committed) are recoverable "
                    f"with recover=True (CLI: repro journal --recover)"
                ) from None
            journal = prefix
            journal.truncation = truncation
        return journal

    @classmethod
    def _recover_prefix(
        cls, text: str, detail: str
    ) -> "tuple[UpdateJournal, JournalTruncation]":
        """Scan the intact record prefix out of corrupt journal text.

        Finds the ``"records"`` array and decodes one record object at a
        time (``raw_decode``), stopping — and recording the cut point —
        at the first record that fails to parse or to validate.
        """
        journal = cls()
        match = re.search(r'"records"\s*:\s*\[', text)
        pos = match.end() if match else len(text)
        if match:
            while True:
                while pos < len(text) and text[pos] in " \t\r\n,":
                    pos += 1
                if pos >= len(text) or text[pos] == "]":
                    break
                try:
                    raw, end = _JSON_DECODER.raw_decode(text, pos)
                    record = JournalRecord(
                        seq=int(raw["seq"]),
                        insertions=tuple(
                            (int(u), int(v)) for u, v in raw["insertions"]
                        ),
                        deletions=tuple(
                            (int(u), int(v)) for u, v in raw["deletions"]
                        ),
                        status=raw["status"],
                    )
                    if record.status not in ("pending", "committed", "aborted"):
                        break
                except (ValueError, KeyError, TypeError):
                    break
                journal.records.append(record)
                pos = end
        line = text.count("\n", 0, pos) + 1
        column = pos - text.rfind("\n", 0, pos)
        truncation = JournalTruncation(
            records=len(journal.records),
            committed=sum(
                1 for r in journal.records if r.status == "committed"
            ),
            line=line,
            column=column,
            detail=detail,
        )
        return journal, truncation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        committed = sum(1 for r in self.records if r.status == "committed")
        return f"UpdateJournal({committed}/{len(self.records)} committed)"
