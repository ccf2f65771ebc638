"""In-memory spans: name, start, end, parent span, and counters.

Spans are appended to a list while the benchmark runs and written out
once at the end.  A span's self time is its duration minus the durations
of its direct children (children never overlap: the code is serial).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counters]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its counter dict for the caller to fill."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec[4]
        finally:
            rec[2] = perf_counter()
            self._stack.pop()


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, in list order."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
