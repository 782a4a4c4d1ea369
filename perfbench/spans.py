"""In-memory spans around calls into plate-decay's modules.

The tracer replaces module attributes (the names ``platedecay.cli`` imports,
and the ones ``verify`` imports at call time) with timing wrappers for the
life of a run and restores them afterwards; the program's sources carry no
instrumentation.  Spans are kept in memory and written once the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    overhead: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; a span's ``overhead`` is the tracer's own time,
    measured around it outside the wrapped call."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, layer, 0.0, parent=parent, op=self.op)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, layer, info=None):
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``layer.attr``; ``info(args, kwargs, result)`` adds size facts."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = getattr(owner, attr)
        name = f"{layer}.{attr}"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = self.open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info.update(info(args, kwargs, result))
            span.overhead = (span.start - entered) + (time.perf_counter()
                                                      - span.end)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw))

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def self_times(self):
        """Per-span duration minus the duration of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self, **labels):
        return [dict(asdict(s), **labels) for s in self.spans]
