"""Per-layer attribution for the traced run, measured from outside the program.

:class:`Wrappers` sets instance-attribute wrappers on objects the benchmark
built itself (the service, its journal and reader, the engine).  Each
wrapper opens a ``bench.<layer>.<fn>`` span on the active
:class:`repro.obs.tracing.Tracer`, so the benchmark's spans and the spans
the program already emits (``plds.rise``, ``shard.round``,
``read.snapshot``, ...) form one tree.  Nothing under ``src/`` changes.

:func:`attribute` folds that tree into layer self times.  A span's self
time is its wall time minus its children's; each span is charged to the
layer its name maps to in :data:`LAYER_OF`, and spans the map does not
name (``service.batch``, ``plds.update``, ``read.snapshot``, ...) are
charged to the layer of their parent.  The self times therefore add up to
the wall time of the root spans exactly, and the rest of the client's wall
time is the explicit residual ``trace.unattributed_frac``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.obs.tracing import Span, Tracer

__all__ = ["LAYERS", "LAYER_OF", "Wrappers", "attribute"]

#: span name -> layer charged with the span's self time.
LAYER_OF = {
    "bench.client.gen": "client.gen",
    "bench.service.apply_updates": "service.preprocess",
    "bench.service.apply_batch": "service.self",
    "bench.service.journal": "service.journal",
    "bench.service.restore_point": "service.restore_point",
    "bench.service.publish": "service.publish",
    "bench.core.update": "core.self",
    "plds.rise": "core.rise",
    "shard.rise": "core.rise",
    "plds.desaturate": "core.desaturate",
    "shard.desaturate": "core.desaturate",
    "plds.rebuild": "core.rebuild",
    "shard.rebuild": "core.rebuild",
    "shard.apply": "shard.apply",
    "shard.round": "shard.round",
    "shard.ghost_apply": "shard.ghost_apply",
    "bench.query.point": "query.point",
    "bench.query.heavy": "query.heavy",
}

#: every layer, in report order.
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Wrappers:
    """Instance-attribute wrappers that open one span per call."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._installed: list[tuple[Any, str]] = []

    def wrap(self, obj: Any, attr: str, name: str, tracker: Any) -> None:
        fn = getattr(obj, attr)
        begin, end = self.tracer.begin, self.tracer.end

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            span = begin(name, tracker)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end(span, error=type(exc).__name__)
                raise
            end(span)
            return result

        setattr(obj, attr, wrapped)
        self._installed.append((obj, attr))

    def remove(self) -> None:
        """Drop every wrapper, uncovering the class methods again."""
        for obj, attr in reversed(self._installed):
            delattr(obj, attr)
        self._installed.clear()


def attribute(roots: list[Span]) -> dict[str, Any]:
    """Layer self times and span counts of one traced span forest.

    Returns ``self_s`` (layer -> Σ self wall seconds), ``root_s`` (Σ wall
    of the root spans, which ``self_s`` adds up to), ``update_s`` (Σ wall
    of outermost ``bench.core.update`` spans), per-name ``calls`` /
    ``wall_s``, the rise/desaturate round counts, the cascade candidates
    (Σ ``queue`` attribute) and the ghost-exchange message count.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    wall_s: dict[str, float] = defaultdict(float)
    rounds = {"rise": 0, "desaturate": 0}
    candidates = 0
    messages = 0
    update_s = 0.0
    stack: list[tuple[Span, str | None, bool]] = [(r, None, False) for r in roots]
    while stack:
        span, parent_layer, in_update = stack.pop()
        name = span.name
        layer = LAYER_OF.get(name, parent_layer)
        if layer is None:
            raise ValueError(f"root span {name!r} belongs to no named layer")
        self_s[layer] += span.wall_seconds - sum(c.wall_seconds for c in span.children)
        calls[name] += 1
        wall_s[name] += span.wall_seconds
        if name == "bench.core.update" and not in_update:
            update_s += span.wall_seconds
            in_update = True
        if name in ("plds.rise", "plds.desaturate"):
            rounds[name[5:]] += 1
            candidates += span.attrs.get("queue", 0)
        elif name == "shard.round":
            rounds[span.attrs["phase"]] += 1
            messages += span.attrs.get("messages", 0)
        stack.extend((c, layer, in_update) for c in span.children)
    return {
        "self_s": dict(self_s),
        "root_s": sum(r.wall_seconds for r in roots),
        "update_s": update_s,
        "calls": dict(calls),
        "wall_s": dict(wall_s),
        "rounds": rounds,
        "candidates": candidates,
        "messages": messages,
    }
