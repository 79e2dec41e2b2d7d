"""In-memory spans and call counters recorded around svg2vml's layers.

Spans come from the benchmark's side only.  The traced pipeline in run.py
opens a span around its own calls to parse_svg, map_document and the
emitters, and `installed` rebinds, for the length of a traced pass, the
names that mappers imported from path_data, transform and style to
recording wrappers.  format_number is rebound in every module that imported
it, and MapperContext.at on its class; both only count calls and sum their
time, because one span per call would dwarf the work.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "doc")

    def __init__(self, name: str, start: float, end: float, parent: int, doc: Optional[str]):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root
        self.doc = doc


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.call_seconds: Counter = Counter()
        self.sizes: Counter = Counter()
        self.doc: Optional[str] = None
        self._open: list[int] = []

    def _enter(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.doc)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def spanned(self, name: str, function: Callable, size: Optional[Callable] = None) -> Callable:
        """Wrap function so that each call records a span; size(result) is
        added to sizes[name] when given."""

        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit(span)
            if size is not None:
                self.sizes[name] += size(result)
            return result

        return wrapper

    def counted(self, name: str, function: Callable) -> Callable:
        """Wrap function so that calls are counted and their time summed."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.call_seconds[name] += time.perf_counter() - start
                self.calls[name] += 1

        return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Rebind svg2vml's inter-layer names to tracer wrappers, restoring them on exit."""
    from svg2vml import mappers, path_data, style, transform

    spanned = [
        (mappers, "parse_path_data", "path_data.parse", len),
        (mappers, "to_absolute", "path_data.normalize", None),
        (mappers, "shift_commands", "path_data.normalize", None),
        (mappers, "emit_vml_path", "path_data.emit", None),
        (mappers, "parse_transform_list", "transform.parse", len),
        (mappers, "compose_ctm", "transform.compose", None),
        (mappers, "resolve_fill_reference", "style.fill_ref", None),
    ]
    counted = [(module, "format_number", "numeric.format") for module in (mappers, path_data, transform, style)]
    counted.append((mappers.MapperContext, "at", "map.ctx_at"))

    saved = []
    try:
        for owner, attribute, name, size in spanned:
            saved.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, tracer.spanned(name, getattr(owner, attribute), size))
        for owner, attribute, name in counted:
            saved.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, tracer.counted(name, getattr(owner, attribute)))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def self_ms_by_name(spans: list[Span], doc_factors: dict[str, float]) -> dict[str, float]:
    """Summed self time per span name, in ms, each span scaled by its document's factor."""
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans)):
        totals[span.name] += seconds * 1000.0 * doc_factors[span.doc]
    return dict(totals)
