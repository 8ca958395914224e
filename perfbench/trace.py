"""Spans recorded by the benchmark around calls into the program's layers.

The benchmark adds no instrumentation to the program.  For a traced
repetition it temporarily replaces a list of public entry points
(methods and module functions, see ``workloads.LAYER_TARGETS``) with
wrappers that record one span per call, and restores them afterwards.
Spans are kept in memory and written out when the run ends.

A layer's self time is the duration of its spans minus the part their
child spans cover, so self times never add up to more than the wall
time of the section they were recorded in.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call into a layer (``layer`` is None for the benchmark's own
    root spans, such as one repetition's set-up or measured section)."""

    id: int
    parent: int | None
    root: int
    layer: str | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder with temporary entry-point wrapping."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, layer: str | None, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(id=len(self.spans),
                    parent=None if parent is None else parent.id,
                    root=len(self.spans) if parent is None else parent.root,
                    layer=layer, name=name,
                    start_ns=time.perf_counter_ns())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, fn, layer: str, name: str, observe=None):
        """*fn* with a span around every call; ``observe(result)``, when
        given, returns attributes recorded on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as span:
                result = fn(*args, **kwargs)
                if observe is not None:
                    span.attrs.update(observe(result))
                return result
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, attribute, layer, name, observe)`` target
        for the duration of the block."""
        saved = []
        try:
            for owner, attribute, layer, name, observe in targets:
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute,
                        self.wrap(original, layer, name, observe))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- analysis -----------------------------------------------------------

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def under(self, root: Span) -> list[Span]:
        return [s for s in self.spans if s.root == root.id and s is not root]

    def self_ns(self, spans) -> dict[tuple[str, str], int]:
        """Self time per ``(layer, name)`` over *spans* (one tree)."""
        spans = list(spans)
        child_ns: dict[int, int] = {}
        for span in spans:
            if span.parent is not None:
                child_ns[span.parent] = (child_ns.get(span.parent, 0)
                                         + span.duration_ns)
        totals: dict[tuple[str, str], int] = {}
        for span in spans:
            if span.layer is None:
                continue
            key = (span.layer, span.name)
            totals[key] = (totals.get(key, 0) + span.duration_ns
                           - child_ns.get(span.id, 0))
        return totals

    def outermost(self, spans, layer: str, name: str) -> list[Span]:
        """Spans of ``(layer, name)`` not nested in another of the same
        layer (a compile that calls a plan builder counts once)."""
        by_id = {span.id: span for span in self.spans}
        picked = []
        for span in spans:
            if span.layer != layer or span.name != name:
                continue
            parent = by_id.get(span.parent)
            if parent is not None and parent.layer == layer:
                continue
            picked.append(span)
        return picked


class NullTracer:
    """The untraced stand-in: spans cost one call and record nothing."""

    enabled = False
    _NULL = nullcontext()

    def span(self, layer, name):
        return self._NULL

    def patched(self, targets):
        return self._NULL
