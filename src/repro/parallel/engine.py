"""Work-depth metering engine.

The paper analyzes its algorithms in the *work-depth model* (Section 2):
*work* is the total number of operations executed, and *depth* is the
longest chain of sequential dependencies.  CPython cannot run the
algorithms with real shared-memory parallelism, so this module provides a
deterministic *simulation* of the binary-forking model: parallel constructs
execute sequentially in a canonical order, but every operation is metered
so that, at the end of an algorithm, we know exactly how much work was done
and how long the critical path was.

The central object is :class:`WorkDepthTracker`.  Algorithms thread a
tracker through their calls and charge costs with :meth:`~WorkDepthTracker.add`.
Parallel structure is expressed with :meth:`~WorkDepthTracker.parallel` /
:meth:`~WorkDepthTracker.flat_parfor`: within a parallel scope, the work of
all branches is summed while only the *maximum* branch depth is added to
the enclosing depth.

This mirrors the composition rules of the work-depth model:

- sequential composition: ``W = W1 + W2``, ``D = D1 + D2``
- parallel composition:   ``W = W1 + W2``, ``D = max(D1, D2)``

Example
-------
>>> t = WorkDepthTracker()
>>> with t.parallel() as par:
...     for x in range(4):
...         with par.branch():
...             t.add(work=10, depth=3)
>>> (t.work, t.depth)
(40, 3)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

__all__ = [
    "WorkDepthTracker",
    "Cost",
    "set_fault_hook",
    "set_obs_hook",
]


#: Fault-injection hook for the ``engine.parfor`` site.  This layer has
#: no imports from the rest of the package (see docs/architecture.md),
#: so :mod:`repro.faults` pushes its hook in via :func:`set_fault_hook`
#: instead of being imported here.  ``None`` (the default) keeps every
#: parfor at one module-global load plus a branch — the zero-overhead
#: contract the perf harness gates.
_FAULT_HOOK: Callable[[str], None] | None = None

#: Observability hook for the same ``engine.parfor`` site, pushed in by
#: :mod:`repro.obs.metrics` under the identical import-clean contract.
_OBS_HOOK: Callable[[str], None] | None = None


def set_fault_hook(hook: Callable[[str], None] | None) -> None:
    """Install (or with ``None`` remove) the ``engine.parfor`` fault hook."""
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def set_obs_hook(hook: Callable[[str], None] | None) -> None:
    """Install (or with ``None`` remove) the ``engine.parfor`` obs hook."""
    global _OBS_HOOK
    _OBS_HOOK = hook


@dataclass(frozen=True)
class Cost:
    """An immutable (work, depth) pair, the currency of the model."""

    work: int = 0
    depth: int = 0

    def __add__(self, other: "Cost") -> "Cost":
        """Sequential composition."""
        return Cost(self.work + other.work, self.depth + other.depth)

    def __or__(self, other: "Cost") -> "Cost":
        """Parallel composition."""
        return Cost(self.work + other.work, max(self.depth, other.depth))


class _Frame:
    """One accounting frame: accumulates sequential work/depth."""

    __slots__ = ("work", "depth")

    def __init__(self) -> None:
        self.work = 0
        self.depth = 0


class _Branch:
    """One parallel branch: isolates costs while active.

    Hand-rolled context manager — profiling showed generator-based
    ``@contextmanager`` overhead dominating fine-grained parallel loops
    (hundreds of thousands of branches per batch).
    """

    __slots__ = ("_scope", "_frame")

    def __init__(self, scope: "_ParallelScope") -> None:
        self._scope = scope

    def __enter__(self) -> None:
        self._frame = _Frame()
        self._scope._tracker._stack.append(self._frame)

    def __exit__(self, *exc_info: object) -> None:
        self._scope._tracker._stack.pop()
        frame = self._frame
        scope = self._scope
        scope.work += frame.work
        if frame.depth > scope.max_depth:
            scope.max_depth = frame.depth


class _ParallelScope:
    """Accumulates branches: sums work, maxes depth."""

    __slots__ = ("_tracker", "work", "max_depth")

    def __init__(self, tracker: "WorkDepthTracker") -> None:
        self._tracker = tracker
        self.work = 0
        self.max_depth = 0

    def branch(self) -> _Branch:
        """Open one parallel branch; costs inside it are isolated."""
        return _Branch(self)


class WorkDepthTracker:
    """Meters work and depth of a (simulated) parallel computation.

    The tracker maintains a stack of frames.  ``add`` charges the top
    frame; a ``parallel`` scope redirects branch costs into an aggregator
    that is folded back (sum-work / max-depth) when the scope closes.

    A fresh tracker may be used for a whole experiment or reset per batch
    via :meth:`snapshot` / :meth:`delta`.
    """

    def __init__(self) -> None:
        self._root = _Frame()
        self._stack: list[_Frame] = [self._root]

    # -- charging -----------------------------------------------------

    def add(self, work: int = 1, depth: int = 1) -> None:
        """Charge ``work`` units of work and ``depth`` units of depth."""
        frame = self._stack[-1]
        frame.work += work
        frame.depth += depth

    # -- structure ----------------------------------------------------

    @contextmanager
    def parallel(self) -> Iterator[_ParallelScope]:
        """Open a parallel scope.

        Branches created with ``scope.branch()`` compose in parallel; the
        combined cost (sum of works, max of depths) is charged to the
        enclosing frame when the scope exits.
        """
        scope = _ParallelScope(self)
        yield scope
        frame = self._stack[-1]
        frame.work += scope.work
        frame.depth += scope.max_depth

    def flat_parfor(self, items: Iterable[T], body: Callable[[T], None]) -> None:
        """Simulated ``parfor``: run ``body`` over ``items``.

        All iterations execute sequentially (canonical order — the
        paper's Lemma 5.9 shows an equivalent sequential order always
        exists), but their costs compose in parallel: the sum of branch
        works and the max of branch depths are folded into the enclosing
        frame.  A single scratch frame is reused for every branch instead
        of pushing/popping one ``_Frame`` plus two context managers per
        iteration (a :meth:`parallel` scope) — the dominant interpreter
        overhead of fine-grained loops with hundreds of thousands of
        branches per batch.
        """
        if _FAULT_HOOK is not None:
            _FAULT_HOOK("engine.parfor")
        if _OBS_HOOK is not None:
            _OBS_HOOK("engine.parfor")
        stack = self._stack
        scratch = _Frame()
        stack.append(scratch)
        total_work = 0
        max_depth = 0
        try:
            for item in items:
                scratch.work = 0
                scratch.depth = 0
                body(item)
                total_work += scratch.work
                if scratch.depth > max_depth:
                    max_depth = scratch.depth
        finally:
            stack.pop()
        frame = stack[-1]
        frame.work += total_work
        frame.depth += max_depth

    # -- reading ------------------------------------------------------

    @property
    def work(self) -> int:
        return self._root.work

    @property
    def depth(self) -> int:
        return self._root.depth

    @property
    def cost(self) -> Cost:
        return Cost(self._root.work, self._root.depth)

    def snapshot(self) -> Cost:
        """Capture current totals (for computing per-phase deltas)."""
        return self.cost

    def delta(self, since: Cost) -> Cost:
        """Cost accumulated since ``since`` (a prior :meth:`snapshot`)."""
        return Cost(self.work - since.work, self.depth - since.depth)

    def reset(self) -> None:
        self._root.work = 0
        self._root.depth = 0
        del self._stack[1:]
