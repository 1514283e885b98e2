"""Query trace: nested timed spans with counters.

Query entry points take `trace=None`; given a Trace, they open spans
and count into them, and without one `span` and `count` do nothing.
Only the calling thread fills a trace, never a worker thread.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass(slots=True)
class Span:
    """One timed region, perf_counter_ns bounds, and the counts made inside it."""

    name: str
    parent: Span | None
    start_ns: int
    end_ns: int = 0
    counts: Counter = field(default_factory=Counter)


class Trace:
    """Spans in the order they were opened; counts made outside every span go to `counts`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[Span] = []


@contextmanager
def span(trace: Trace | None, name: str):
    """Time the block as a child of the innermost open span of `trace`."""
    if trace is None:
        yield None
        return
    s = Span(name, trace._open[-1] if trace._open else None, perf_counter_ns())
    trace.spans.append(s)
    trace._open.append(s)
    try:
        yield s
    finally:
        s.end_ns = perf_counter_ns()
        trace._open.pop()


def count(trace: Trace | None, name: str, n: int = 1) -> None:
    """Add n to counter `name` of the innermost open span of `trace`."""
    if trace is not None:
        (trace._open[-1].counts if trace._open else trace.counts)[name] += n
