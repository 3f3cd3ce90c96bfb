"""Span recording for the traced run, and the self-time arithmetic over spans.

A span is one call of a wrapped function: a name, a start and an end in
``time.perf_counter_ns`` nanoseconds, and the index of the span that was open
when it began (-1 for a top-level call).  The program is single-threaded at
``--jobs 1``, so the open spans always form a stack and a parent is simply
the innermost open span.  Spans stay in memory until ``write_tsv``.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict


class SpanRecorder:
    """Wraps functions in place, records one span per call, and restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def traced(self, fn, name: str, on_result=None):
        """A wrapper of ``fn`` that records a span named ``name`` per call.

        ``on_result`` sees each return value, after the span has closed.
        """
        nid = self._name_index.setdefault(name, len(self._name_index))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, starts, ends, parents = (self.name_ids, self.starts,
                                           self.ends, self.parents)
        stack, now = self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the old value."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def unpatch_all(self) -> None:
        """Undo every ``patch``, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_tsv(self, path) -> None:
        """Write the spans, one per line: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i, (nid, s, e, p) in enumerate(zip(self.name_ids, self.starts,
                                                   self.ends, self.parents)):
                fh.write(f"{i}\t{names[nid]}\t{s}\t{e}\t{p}\n")


def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the part of [lo, hi] that the union of ``intervals`` covers."""
    total = 0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    return [ends[i] - starts[i] - covered_ns(starts[i], ends[i], children.get(i, ()))
            for i in range(len(starts))]

