"""In-memory span recorder for the traced benchmark pass.

A span holds its name, start and end (``process_time`` CPU seconds, the
clock of the client phases it nests in), the index of its parent span, the
instance it belongs to, and whether the call failed.  Spans stay in memory
until the run ends.  With tracing off, ``Tracer.span`` hands out one shared
no-op object, so the untraced pass runs the same code at the cost of a
method call per library call.
"""

from __future__ import annotations

from collections import defaultdict
from time import process_time


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def fail(self) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "instance", "parent", "start", "end", "error")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.instance = tracer.instance
        self.error = False

    def __enter__(self):
        stack = self.tracer._stack
        self.parent = stack[-1] if stack else None
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self)
        self.start = process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = process_time()
        self.tracer._stack.pop()
        if exc_type is not None:
            self.error = True
        return False

    def fail(self) -> None:
        """Mark a call that returned a rejection instead of raising."""
        self.error = True


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.instance: int | None = None
        self.spans: list[_Span] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def records(self) -> list[list]:
        """``[name, start, end, parent, instance, error]`` per span."""
        return [
            [s.name, s.start, s.end, s.parent, s.instance, s.error]
            for s in self.spans
        ]

    def totals(self, instances=None) -> dict[str, dict[str, float]]:
        """Busy seconds, self seconds, calls and errors per span name, over
        the spans of ``instances`` (default: all).

        Self time is the span's duration minus its children's; children of
        one span run one after another, so their intervals do not overlap.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"busy": 0.0, "self": 0.0, "calls": 0, "errors": 0}
        )
        for i, s in enumerate(self.spans):
            if instances is not None and s.instance not in instances:
                continue
            t = out[s.name]
            t["busy"] += s.end - s.start
            t["self"] += s.end - s.start - child_time[i]
            t["calls"] += 1
            t["errors"] += s.error
        return dict(out)
