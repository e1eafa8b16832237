"""Outside-in span tracing for the fleet-export benchmark.

The benchmark never edits ``src/``: it records spans by wrapping public
callables at their binding in the consuming module (for example
``repro.engine.writer.encode_csv_rows``) for the length of one traced
operation, then restores the originals.

A span records its name, start, end, parent span and the run id shared by
every span of one operation.  Spans stay in memory and are written out
when the run ends.  Counts are recorded at the same boundaries.  A span's
self time is its duration minus the part of that interval its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

#: Standard percentiles :func:`tail_percentile` considers, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
#: A reported tail percentile needs at least this many samples beyond it.
MINIMUM_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: str
    parent: "str | None"
    run_id: "str | None"
    pid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and count recorder with reversible wrappers."""

    def __init__(self):
        self.spans: "list[Span]" = []
        self.counts: "dict[str, float]" = defaultdict(float)
        self.run_id: "str | None" = None
        self._root: "str | None" = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: "list[tuple[object, str, object]]" = []

    # -- spans and counts --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        # A span opened on a thread with nothing open yet (a coordinator
        # reader thread, say) belongs to the operation's root span.
        parent = stack[-1].span_id if stack else self._root
        span = Span(
            name, time.perf_counter(), 0.0,
            f"{os.getpid()}-{next(self._ids)}", parent, self.run_id, os.getpid(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().remove(span)
        self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def start_operation(self, name: str, run_id: str) -> Span:
        """Open the root span of one operation; every span until
        :meth:`finish_operation` carries ``run_id``."""
        self.run_id = run_id
        root = self.begin(name)
        self._root = root.span_id
        return root

    def finish_operation(self, root: Span) -> None:
        self.end(root)
        self._root = None

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until :meth:`restore`.

        ``on_call(tracer, args, kwargs, result)`` records counts at the
        same boundary.  Class attributes keep their descriptor kind.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        tracer = self

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        replacement = type(raw)(spanned) if isinstance(
            raw, (classmethod, staticmethod)
        ) else spanned
        self.patch(owner, attr, replacement)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put back every wrapped callable (last wrapped, first restored)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def drain_own(self) -> dict:
        """This process's spans (as dicts) and counts, removed from the
        tracer."""
        mine = [asdict(span) for span in self.spans if span.pid == os.getpid()]
        self.spans = [span for span in self.spans if span.pid != os.getpid()]
        counts, self.counts = dict(self.counts), defaultdict(float)
        return {"spans": mine, "counts": counts}


#: The tracer whose wrappers are installed in this process, so a forked
#: pool worker can hand its spans back (:func:`drain_worker`).
_INSTALLED: "list[Tracer]" = []


def mark_installed(tracer: "Tracer | None") -> None:
    _INSTALLED[:] = [] if tracer is None else [tracer]


def drain_worker() -> dict:
    """Pool task: what the inherited tracer recorded in this worker."""
    return _INSTALLED[0].drain_own() if _INSTALLED else {"spans": [], "counts": {}}


# -- analysis helpers ---------------------------------------------------------


def covered(intervals: "list[tuple[float, float]]", lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: "list[Span]") -> "dict[str, float]":
    """Span id → duration minus the time its children cover."""
    children: "dict[str, list[tuple[float, float]]]" = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


def subtree(spans: "list[Span]", root_id: str) -> "list[Span]":
    """``root_id``'s span and every span descending from it."""
    by_parent: "dict[str, list[Span]]" = defaultdict(list)
    root = None
    for span in spans:
        if span.span_id == root_id:
            root = span
        elif span.parent is not None:
            by_parent[span.parent].append(span)
    out = [] if root is None else [root]
    index = 0
    while index < len(out):
        out.extend(by_parent.get(out[index].span_id, []))
        index += 1
    return out


def self_time_by_name(spans: "list[Span]") -> "dict[str, float]":
    """Total self time per span name."""
    own = self_times(spans)
    totals: "dict[str, float]" = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.span_id]
    return dict(totals)


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile ``p`` among ``n`` sorted samples (1-based)."""
    return max(1, -(-(round(p * 10) * n) // 1000))  # ceil(p * n / 100)


def nearest_rank(samples: "list[float]", p: float) -> float:
    """The nearest-rank ``p``-th percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(samples: "list[float]"):
    """``(p, value)`` for the highest of :data:`PERCENTILES` with at least
    :data:`MINIMUM_BEYOND` samples above it, or ``None`` when even the median
    has fewer.  The value is the nearest-rank percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        rank = _rank(p, n)
        if n - rank >= MINIMUM_BEYOND:
            return p, ordered[rank - 1]
    return None
