"""Outside-in layer tracing: wrap module-level names, record spans, restore.

The program under test has no timers of its own.  This module replaces a
chosen set of module attributes (for example ``lteturbo.siso.max_star``)
with thin wrappers for the duration of a ``with`` block and puts the
originals back on exit, also when the block raises.  A wrapper only sees
calls that go through the module attribute, so the layers measured are
exactly the names listed by the caller.

Two kinds of wrapper exist:

* ``SpanTracer`` records one span per call: name, thread id, start, end
  and the span that was open when it started.  A span opened on a thread
  with nothing open (a worker of a thread pool) takes as parent the span
  open on the thread that entered the tracer.
* ``CallCounter`` only counts calls per name.  It is the cheap second
  pass that the exact-count check compares the traced pass against.
"""

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple


@contextmanager
def patched(targets, make_wrapper):
    """Replace each (module, attr) with make_wrapper(name, original).

    name is "<last module component>.<attr>", e.g. "siso.max_star".
    Every original is restored on exit, in reverse order, even when the
    body or a later replacement raises.
    """
    saved = []
    try:
        for module, attr in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, make_wrapper(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """Records a Span for every call of the wrapped names."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[tuple] = []    # Span fields; a plain tuple is cheaper to build

    @contextmanager
    def active(self):
        local = threading.local()
        entry_stack = local.stack = []
        ids = itertools.count()
        spans = self.spans
        clock = time.perf_counter
        get_ident = threading.get_ident

        def make_wrapper(name, fn):
            def traced(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                parent = stack[-1] if stack else (entry_stack[-1] if entry_stack else None)
                sid = next(ids)
                stack.append(sid)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans.append((sid, parent, name, get_ident(), start, end))
            traced.__wrapped__ = fn
            return traced

        with patched(self.targets, make_wrapper):
            yield self


class CallCounter:
    """Counts calls of the wrapped names; optional per-name overrides.

    overrides maps a name to make(original) -> replacement, for wrappers
    that must do more than count (the count pass uses it to decode with
    per-iteration tracing).
    """

    def __init__(self, targets, overrides=None):
        self.targets = list(targets)
        self.overrides = overrides or {}
        self.calls: dict[str, int] = defaultdict(int)

    @contextmanager
    def active(self):
        calls = self.calls
        lock = threading.Lock()

        def make_wrapper(name, fn):
            inner = self.overrides[name](fn) if name in self.overrides else fn

            def counted(*args, **kwargs):
                with lock:
                    calls[name] += 1
                return inner(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        with patched(self.targets, make_wrapper):
            yield self


# ---------------------------------------------------------------------------
# analysis

def union_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class LayerTimes:
    """Per-name totals of a traced run, summed over threads."""
    busy: dict      # name -> sum of span durations
    self_time: dict  # name -> sum of (duration - time covered by child spans)
    wall: dict      # name -> length of the union of its spans over all threads
    calls: dict     # name -> number of spans


def analyse(spans) -> LayerTimes:
    """Fold spans into per-name totals and check that they nest.

    A span's self time is its duration minus the union of its children's
    intervals.  Raises ValueError unless every child lies inside its
    parent and, for children on the parent's own thread, self time plus
    the children's summed durations equals the parent's duration (that is,
    same-thread children never overlap).
    """
    spans = [Span(*s) for s in spans]
    ids = {s.sid for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            if s.parent not in ids:
                raise ValueError(f"span {s.name} has an unrecorded parent")
            children[s.parent].append(s)
    busy, self_time, wall, calls = (defaultdict(float), defaultdict(float),
                                    defaultdict(list), defaultdict(int))
    for s in spans:
        kids = children.get(s.sid, [])
        for k in kids:
            if k.start < s.start or k.end > s.end:
                raise ValueError(f"span {k.name} escapes its parent {s.name}")
        covered = union_length((k.start, k.end) for k in kids)
        own = s.duration - covered
        if all(k.thread == s.thread for k in kids):
            summed = sum(k.duration for k in kids)
            if abs(own + summed - s.duration) > 1e-9 * max(1.0, s.duration):
                raise ValueError(f"children of {s.name} overlap on one thread")
        busy[s.name] += s.duration
        self_time[s.name] += own
        wall[s.name].append((s.start, s.end))
        calls[s.name] += 1
    return LayerTimes(busy=dict(busy), self_time=dict(self_time),
                      wall={k: union_length(v) for k, v in wall.items()},
                      calls=dict(calls))
