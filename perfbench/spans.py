"""In-memory spans and counters for the traced run.

A span records a name, start and end (``time.perf_counter`` seconds), the
span that was open when it started, and the scene it belongs to.  Spans
and counts stay in memory until the run ends and writes them out.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    @contextlib.contextmanager
    def span(self, name, scene=None):
        parent = self._open[-1] if self._open else None
        if scene is None and parent is not None:
            scene = self.spans[parent]["scene"]
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "scene": scene, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    def _inside(self, span, ancestor) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def durations(self, name, within=None):
        """Durations of the spans called ``name``, optionally only those
        opened inside a span called ``within``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (within is None or self._inside(s, within))]

    def total(self, name, within=None) -> float:
        return float(sum(self.durations(name, within)))

    def median(self, name, within=None) -> float:
        values = self.durations(name, within)
        return float(statistics.median(values)) if values else 0.0


class NullTracer:
    """Tracing off: spans and counts cost one call and record nothing."""

    _none = contextlib.nullcontext()

    def span(self, name, scene=None):
        return self._none

    def count(self, name, n=1):
        pass
