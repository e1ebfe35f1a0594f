"""In-memory spans for the benchmark's traced runs.

A span is (name, start, end, parent); the name's prefix before the first
dot is the layer it belongs to, e.g. ``geometry.all_pairs_nso``. Callers
time their own calls and hand the timestamps over, so a disabled tracer
costs one attribute test per call and the untraced run takes the same
timestamps as the traced one.

Times are CPU time of the benchmark process (`clock`), which runs on one
thread and barely waits on I/O; a tracer can be given another clock, such
as one that leaves out the benchmark's own reference samples.
"""

from __future__ import annotations

import contextlib
import json
import time

clock = time.process_time


class Tracer:
    def __init__(self, enabled: bool, clock=clock):
        self.enabled = enabled
        self.clock = clock
        self.origin = clock()
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []  # indices of the enclosing stage spans

    def record(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Add a finished span; returns its index, or -1 when disabled."""
        if not self.enabled:
            return -1
        if parent is None:
            parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def stage(self, name: str):
        """Span enclosing every span recorded inside the block."""
        if not self.enabled:
            yield
            return
        index = self.record(name, self.clock(), 0.0)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = self.clock()

    def self_seconds(self) -> dict:
        """Layer -> summed span time minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start) - inner
        return totals

    def layers(self) -> set:
        return {name.split(".", 1)[0] for name, *_ in self.spans}

    def dump(self, path) -> None:
        """Write every span, times in seconds from tracer creation."""
        rows = [
            {"id": i, "name": name, "start": start - self.origin,
             "end": end - self.origin, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)


def seconds_per_span(samples: int = 20000) -> float:
    """Cost of recording one span: what a traced run adds per traced call."""
    tracer = Tracer(True)
    start = clock()
    for _ in range(samples):
        tracer.record("calibrate", 0.0, 0.0)
    return (clock() - start) / samples
