"""Spans and counts around the benchmark's calls into cascata.

A span records (name, start, end, parent span, phase); the phase is
``setup`` or ``round<i>``.  Spans and counts stay in memory until the run
ends.  With tracing off, ``NullTracer`` passes calls straight through and
``wrap`` returns the function itself, so the untraced run pays nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from statistics import median


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn, count_key=None):
        return fn

    def count(self, key, n):
        pass


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.phase = "setup"
        #: per phase, the host slowdown that its span times are divided by
        self.slowdown: dict = {}
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.phase)

    def wrap(self, name, fn, count_key=None):
        """A one-argument callable that runs ``fn`` in a span; ``count_key``
        adds the argument's length to that count on every call."""
        counts = self.counts

        def traced(arg):
            if count_key is not None:
                counts[(self.phase, count_key)] += len(arg)
            return self.call(name, fn, arg)

        return traced

    def count(self, key, n):
        self.counts[(self.phase, key)] += n

    def root_seconds(self, phase: str) -> float:
        """Time covered by the phase's top-level spans."""
        return sum(end - start for _, start, end, parent, ph in self.spans
                   if parent < 0 and ph == phase)

    def layer_metrics(self) -> dict:
        """Per layer, its self time (span time less its child spans) summed
        within each phase and divided by the phase's slowdown, and each
        count summed within each phase; the median over the phases in which
        the layer appears."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, phase) in enumerate(self.spans):
            self_time[name][phase] += ((end - start) - child[i]) / self.slowdown.get(phase, 1.0)
        by_key: dict = defaultdict(dict)
        for (phase, key), n in self.counts.items():
            by_key[key][phase] = n
        metrics = {f"{name}_s": median(phases.values())
                   for name, phases in self_time.items()}
        metrics.update({key: median(phases.values()) for key, phases in by_key.items()})
        return metrics
