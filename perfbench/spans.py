"""In-memory span recorder and self-time arithmetic.

A span is ``[name, start, end, span_id, parent_id, thread_id]``. Each
thread keeps its own stack of open spans, so work done in a worker thread
nests under the span that worker opened, never under whatever the main
thread has open at the time. Spans stay in memory until the traced process
writes them out.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][3] if stack else 0
        span = [name, self.clock(), None, next(self._ids), parent, threading.get_ident()]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = self.clock()
        self._stack().pop()
        self.spans.append(span)

    def count(self, counter: str, amount: float) -> None:
        with self._lock:
            self.counters[counter] += amount

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording one span per call; ``measure(args, kwargs,
        result)`` returns ``(counter, amount)`` to add, or None."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                hit = measure(args, kwargs, result)
                if hit is not None:
                    self.count(*hit)
            return result

        return traced

    def iterate(self, name: str, items, measure=None):
        """Yield from ``items``, recording one span per ``next()``."""
        items = iter(items)
        while True:
            span = self.open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self.close(span)
            if measure is not None:
                self.count(*measure(item))
            yield item


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, start, end, _, parent, _ in spans:
        children[parent].append((start, end))
    out = {}
    for _, start, end, sid, _, _ in spans:
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end
        ]
        out[sid] = (end - start) - _covered(clipped)
    return out


def summarize(spans) -> dict:
    """name -> {"total": summed duration, "self": summed self time,
    "calls": span count, "first": earliest start, "last": latest end}."""
    own = self_times(spans)
    out = {}
    for name, start, end, sid, _, _ in spans:
        s = out.setdefault(
            name, {"total": 0.0, "self": 0.0, "calls": 0, "first": start, "last": end}
        )
        s["total"] += end - start
        s["self"] += own[sid]
        s["calls"] += 1
        s["first"] = min(s["first"], start)
        s["last"] = max(s["last"], end)
    return out
