"""Span recording and self-time arithmetic for the traced pipeline run.

A span is (name, start, end, parent): `parent` is the index of the span
that was open when this one started, or -1 at the top. Spans are kept in
memory as plain lists and written out once, when the traced run ends.

A span's self time is its duration minus the part of that interval its
child spans cover; overlapping children count once.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    """Records spans and counters from wrappers installed around callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, fn, name, count=None):
        """Return `fn` recording a span per call.

        `name` is a string or a function of the call's arguments giving
        one. `count(counts, result, args, kwargs)` may add to the counters
        after each call that returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append([label, self.clock(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = self.clock()
                self._open.pop()
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
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


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, aligned with `spans`.

    Children are clipped to their parent's interval before their union is
    subtracted, so a child that outlives its parent is not over-counted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return [
        (end - start) - _covered(children.get(i, []))
        for i, (_, start, end, _) in enumerate(spans)
    ]


def inclusive_by_name(spans: list[list], prefix: str) -> float:
    """Wall time inside spans whose name starts with `prefix`.

    Only the outermost such spans count, so recursion or nesting within
    one layer is not counted twice.
    """
    total = 0.0
    for name, start, end, parent in spans:
        if not name.startswith(prefix):
            continue
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0].startswith(prefix):
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            total += end - start
    return total


def self_by_name(spans: list[list]) -> dict[str, float]:
    """Total self time per span name."""
    totals: dict[str, float] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals
