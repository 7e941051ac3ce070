"""In-memory span tracer that wraps a program's functions from outside.

A span records a name, start and end (perf_counter_ns), the index of the
span that was open when it started (its parent), the benchmark operation
it belongs to, the exception class it raised (if any) and a small
per-call summary computed from the result.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error = None
        self.info = None


class Tracer:
    """Collects spans from functions it has wrapped in their owning namespaces.

    Wrapping replaces ``owner.attr``, so a function must be wrapped at every
    place the program looks it up (each ``from x import f`` site), or the
    calls made through the unwrapped name are missed.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1                  # operation index stamped on new spans
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, summarize=None) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter_ns(), stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if summarize is not None:
                span.info = summarize(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus the time its children cover.

        Calls nest on one thread, so children never overlap and their
        coverage is the sum of their durations.
        """
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def ancestors(self, i: int):
        p = self.spans[i].parent
        while p >= 0:
            yield self.spans[p]
            p = self.spans[p].parent
