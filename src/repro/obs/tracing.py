"""Hierarchical span tracing for the metered PLDS stack.

The paper's cost claims are *per phase* — levelwise rises (Algorithm 2),
desaturation cascades (Algorithm 3), level-structure rebuilds
(Section 5.9) — but the metering substrate only surfaces scalar
``(work, depth)`` totals.  This module adds **spans**: named, nested
windows over a computation, each capturing

- the metered work/depth accumulated inside the window, read through
  :meth:`~repro.parallel.engine.WorkDepthTracker.snapshot` /
  :meth:`~repro.parallel.engine.WorkDepthTracker.delta` (so span costs
  are in exactly the currency the cost model proves bounds in);
- wall-clock time (``time.perf_counter``);
- free-form attributes (``level=7``, ``attempt=2``, ...).

Because spans of one tracker nest sequentially at the tracker's root
frame, the tree reconciles *exactly*: a parent span's (work, depth)
delta equals its own ("self") cost plus the sum of its children's
deltas, with integer equality — see :func:`self_cost` and
``docs/observability.md``.

Zero overhead when disabled
---------------------------
Mirrors the :mod:`repro.faults` hook pattern: the installed tracer is
the module global :data:`ACTIVE`, ``None`` by default, and every
instrumented site reduces to one module-global load plus a branch —
per *phase*, never per vertex or per edge.  Hot loops hoist the load
once (``tracer = _tracing.ACTIVE``) exactly like the fault plans do.

Instrumented sites use the explicit :meth:`Tracer.begin` /
:meth:`Tracer.end` pair (no context-manager overhead in hot loops); an
exception that escapes a site leaves its span open until an enclosing
:meth:`Tracer.end` — which unwinds and closes every deeper span — or
:meth:`Tracer.finish` runs.  Non-hot call sites use the
:meth:`Tracer.span` context manager, which is exception-safe on its
own.

Example
-------
>>> from repro.obs import tracing
>>> from repro.parallel.engine import WorkDepthTracker
>>> t = WorkDepthTracker()
>>> with tracing.tracing() as tracer:
...     with tracer.span("outer", t):
...         t.add(work=5, depth=2)
...         with tracer.span("inner", t, level=3):
...             t.add(work=7, depth=1)
>>> root = tracer.roots[0]
>>> (root.work, root.children[0].work, self_cost(root))
(12, 7, (5, 1))
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "ACTIVE",
    "install",
    "clear",
    "tracing",
    "iter_spans",
    "self_cost",
    "phase_totals",
]


class Span:
    """One named window of a traced computation.

    ``work`` / ``depth`` are the metered deltas of the span's tracker
    over the window (0 when the span carries no tracker);
    ``wall_seconds`` is elapsed wall time; ``children`` are the spans
    that opened and closed while this one was open.  ``error`` holds an
    exception type name when the span was closed by an unwinding
    :meth:`Tracer.end` or an exception inside :meth:`Tracer.span`.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "start_s",
        "wall_seconds",
        "work",
        "depth",
        "error",
        "children",
        "_tracker",
        "_start_cost",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: dict[str, Any],
        tracker: Any,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_s = time.perf_counter()
        self.wall_seconds = 0.0
        self.work = 0
        self.depth = 0
        self.error: str | None = None
        self.children: list["Span"] = []
        self._tracker = tracker
        self._start_cost = None if tracker is None else tracker.snapshot()

    def to_dict(self) -> dict[str, Any]:
        """Recursive JSON-serializable view of the span subtree."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "start_s": self.start_s,
            "wall_seconds": self.wall_seconds,
            "work": self.work,
            "depth": self.depth,
            "error": self.error,
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, work={self.work}, depth={self.depth}, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Collects a forest of :class:`Span` trees from one traced run."""

    __slots__ = ("roots", "_stack", "_next_id")

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # -- explicit begin/end (hot-loop API) -----------------------------

    def begin(self, name: str, tracker: Any = None, **attrs: Any) -> Span:
        """Open a span; costs charged to ``tracker`` until :meth:`end`."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            name,
            attrs,
            tracker,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: Span | None = None, error: str | None = None) -> Span:
        """Close ``span`` (default: the innermost open one).

        Any spans opened inside ``span`` and still open — e.g. because
        an injected fault aborted a cascade mid-level — are unwound and
        closed first, so the stack stays consistent across exceptions.
        """
        if not self._stack:
            raise RuntimeError("no span is open")
        if span is None:
            span = self._stack[-1]
        elif span not in self._stack:
            raise RuntimeError(f"span {span.name!r} is not open")
        while self._stack:
            top = self._stack.pop()
            self._close(top, error)
            if top is span:
                break
        return span

    def _close(self, span: Span, error: str | None) -> None:
        span.wall_seconds = time.perf_counter() - span.start_s
        tracker = span._tracker
        if tracker is not None:
            delta = tracker.delta(span._start_cost)
            span.work = delta.work
            span.depth = delta.depth
        if error is not None:
            span.error = error
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def finish(self) -> list[Span]:
        """Close every still-open span and return the root forest."""
        while self._stack:
            self.end()
        return self.roots

    # -- context-manager API (non-hot call sites) ----------------------

    @contextmanager
    def span(self, name: str, tracker: Any = None, **attrs: Any) -> Iterator[Span]:
        """Exception-safe span scope; records the exception type name."""
        sp = self.begin(name, tracker, **attrs)
        try:
            yield sp
        except BaseException as exc:
            self.end(sp, error=type(exc).__name__)
            raise
        self.end(sp)


#: The installed tracer, consulted by every instrumented site; ``None``
#: (the default) compiles each site down to a load-and-branch no-op.
ACTIVE: Tracer | None = None


def install(tracer: Tracer) -> None:
    """Make ``tracer`` the active tracer for all instrumented sites."""
    global ACTIVE
    ACTIVE = tracer


def clear() -> None:
    """Deactivate tracing; all sites become no-ops again."""
    global ACTIVE
    ACTIVE = None


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Scope a tracer to a ``with`` block, restoring the previous one."""
    if tracer is None:
        tracer = Tracer()
    previous = ACTIVE
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.finish()
        if previous is None:
            clear()
        else:
            install(previous)


# ----------------------------------------------------------------------
# Span-tree analysis
# ----------------------------------------------------------------------


def iter_spans(roots: list[Span]) -> Iterator[Span]:
    """Every span of the forest, parents before children."""
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.children))


def self_cost(span: Span) -> tuple[int, int]:
    """(work, depth) attributed to ``span`` itself, children excluded.

    Spans over one tracker compose sequentially at the tracker's root
    frame, so ``span.work == self + sum(child.work)`` holds with exact
    integer equality (same for depth) — the reconciliation invariant
    the acceptance tests pin.
    """
    return (
        span.work - sum(c.work for c in span.children),
        span.depth - sum(c.depth for c in span.children),
    )


def phase_totals(roots: list[Span]) -> dict[str, dict[str, float]]:
    """Aggregate *inclusive* cost per span name.

    Returns ``{name: {count, work, depth, wall_s}}`` — the per-phase
    attribution table ``repro trace`` prints.  Work/depth are inclusive
    of child spans, so compare like-named phases across runs rather than
    summing across names (use :func:`self_cost` for an exclusive
    decomposition).
    """
    totals: dict[str, dict[str, float]] = {}
    for span in iter_spans(roots):
        t = totals.get(span.name)
        if t is None:
            t = totals[span.name] = {
                "count": 0,
                "work": 0,
                "depth": 0,
                "wall_s": 0.0,
            }
        t["count"] += 1
        t["work"] += span.work
        t["depth"] += span.depth
        t["wall_s"] += span.wall_seconds
    for t in totals.values():
        t["wall_s"] = round(t["wall_s"], 6)
    return totals
