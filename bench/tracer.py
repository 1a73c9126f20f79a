"""In-memory spans around the public entry points of primebounds modules.

A span is recorded by replacing a module attribute with a wrapper, so it
covers every caller that looks the function up through that module.  Spans
keep their name, start, end, parent span and an optional tag, and stay in
memory until the run ends.  This module imports nothing from primebounds.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index or -1, tag]
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, name: str, tag=None) -> None:
        """Record a span named `name` around every call of module.attr.

        tag(*args, **kwargs), when given, is evaluated before the span starts
        and stored with it (terms summed, base primes walked, call kind).
        """
        fn = getattr(module, attr)
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tag(*args, **kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(module, attr, traced)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def ancestor(self, index: int, names) -> str | None:
        """Name of the nearest enclosing span whose name is in names."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return self.spans[parent][0]
            parent = self.spans[parent][3]
        return None

