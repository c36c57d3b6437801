"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` rebinds every public function of the package's modules to
a timing wrapper at each module-global name that refers to it, including
names a caller imported with ``from .lindblad import drift_operator``, so
calls between modules are seen too. No source file changes; `uninstall`
restores the originals.

Each span records its name, start, end, parent span, thread id and
operation id. Work a span hands to a thread pool is recorded as *segments*
of that span on the worker threads: the submitting thread is waiting, not
busy, while its segments run. A span's busy time is summed across threads,
and its self time subtracts, on each thread, the union of the intervals
its children cover there.
"""

from __future__ import annotations

import concurrent.futures
import functools
import threading
import time
import types
from dataclasses import dataclass, field

# The subcommand handlers of the cli module are the body of `main`, so
# their time (argparse, CSV formatting, the file write) is main's self time.
CLI_BOUNDARIES = ("main", "parse_model")


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    thread: int
    op: int
    start: float = 0.0
    end: float = 0.0
    segment: bool = False   # a worker-thread piece of `parent`'s own work
    segments: list = field(default_factory=list)


def owner(span: Span | None) -> Span | None:
    """The span whose work a record is: a segment belongs to its parent."""
    return span.parent if span is not None and span.segment else span


class Tracer:
    """Collects spans; one per benchmark process, installed only while tracing."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, span: Span, fn, args, kwargs):
        stack = self._stack()
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None,
                        threading.get_ident(), self.op)
            return self._run(span, fn, args, kwargs)
        return traced

    def segment(self, fn):
        """Bind fn, about to be queued on a pool, to the caller's open span."""
        stack = self._stack()
        parent = owner(stack[-1]) if stack else None
        if parent is None:
            return fn
        op = self.op

        def piece(*args, **kwargs):
            span = Span(parent.name, parent, threading.get_ident(), op, segment=True)
            parent.segments.append(span)
            return self._run(span, fn, args, kwargs)
        return piece

    def pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.segment(fn), *args, **kwargs)
        return TracedThreadPoolExecutor

    def install(self, package, modules) -> None:
        """Wrap the public functions of `modules` wherever `package` binds them."""
        originals = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, value in vars(module).items():
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and not name.startswith("_")
                        and (short != "cli" or name in CLI_BOUNDARIES)):
                    originals[value] = self.wrap(f"{short}.{name}", value)
        pool = self.pool_class()
        for module in (package, *modules):
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is concurrent.futures.ThreadPoolExecutor:
                    replacement = pool
                elif isinstance(value, types.FunctionType) and value in originals:
                    replacement = originals[value]
                else:
                    continue
                self._undo.append((namespace, name, value))
                namespace[name] = replacement

    def uninstall(self) -> None:
        for namespace, name, value in reversed(self._undo):
            namespace[name] = value
        self._undo.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > cursor:
            total += end - max(start, cursor)
            cursor = end
    return total


def _covered(interval, others) -> float:
    """Length of `interval` covered by the union of `others`."""
    lo, hi = interval
    clipped = [(max(lo, s), min(hi, e)) for s, e in others if s < hi and e > lo]
    return _union_length(clipped)


def span_times(spans: list[Span]):
    """(busy, self) seconds of every non-segment span, keyed by span.

    A span's pieces are its own interval on its thread, less the time its
    segments run (the thread waits for them), plus each segment on its
    worker thread. Busy time sums the pieces; self time subtracts from each
    piece the union of its children's intervals on that piece's thread.
    """
    children: dict = {}
    for span in spans:
        if not span.segment and span.parent is not None:
            children.setdefault(owner(span.parent), []).append(span)
    out = {}
    for span in spans:
        if span.segment:
            continue
        seg = [(g.start, g.end) for g in span.segments]
        kid_intervals: dict = {}
        for kid in children.get(span, ()):
            for piece in (kid, *kid.segments):
                kid_intervals.setdefault(piece.thread, []).append((piece.start, piece.end))
        own = (span.start, span.end)
        waiting = _covered(own, seg)
        busy = own[1] - own[0] - waiting
        inner = _covered(own, seg + kid_intervals.get(span.thread, []))
        self_time = own[1] - own[0] - inner
        for g in span.segments:
            busy += g.end - g.start
            self_time += g.end - g.start - _covered((g.start, g.end),
                                                    kid_intervals.get(g.thread, []))
        out[span] = (busy, self_time)
    return out


def layer_totals(spans: list[Span]) -> dict:
    """Per function name: {"calls", "s", "self_s"} over the given spans.

    `s` sums busy time of the outermost span of each name, so a function
    that reaches itself again is not counted twice.
    """
    times = span_times(spans)
    totals: dict = {}
    for span, (busy, self_time) in times.items():
        entry = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_time
        ancestor = owner(span.parent)
        while ancestor is not None and ancestor.name != span.name:
            ancestor = owner(ancestor.parent)
        if ancestor is None:
            entry["s"] += busy
    return totals
