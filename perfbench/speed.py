"""Machine speed during a run, from fixed reference computations.

The benchmark's host is shared: the processor time a run gets goes at a
speed that drifts by up to 1.7x within minutes, in CPU time as much as in
wall time, so raw timings of the same code spread far wider than any change
worth gating. While a run measures, an interval timer therefore times
fixed reference computations, which no change to the program can touch,
every INTERVAL_S of wall time. (A CPU-time timer would do, but while one is
armed Linux reads the process CPU clock at tick resolution.) `now()` is a
clock that excludes the time those samples take, and a time measured on it
is reported scaled by
``NOMINAL_S / median(reference samples taken near it)``: the time it would
take on a machine that runs the reference in NOMINAL_S.

Code of different kinds slows by different amounts, so the reference has
three parts, and each metric is scaled by the part that does the same kind
of work (or by all of them, for a total over mixed work):

- ``tree``: a k-d tree build and nearest-neighbour query, like NSO matching;
- ``boxes``: smoothed-box arithmetic over 5000 boxes in a few large arrays;
- ``small``: numpy calls on small arrays plus a few small objects per result,
  like a top-k with labels over a small gallery or a training step.

Across fresh processes on a busy host, a 96-box top-k scaled as about the
1.8th power of all parts together, but close to in proportion to the small
part; a top-k over 5000 boxes scaled close to in proportion to the boxes
part. The raw tail of a sub-millisecond request did not follow the
reference at all, so tail latencies are taken from each request's median
over its repeats, scaled (see workloads.py).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from spans import clock

# Round figures near each part's median on the 2-core Xeon box the
# benchmark was written on.
NOMINAL_S = {"tree": 1.2e-3, "boxes": 1.5e-3, "small": 0.9e-3}
PARTS = tuple(NOMINAL_S)
INTERVAL_S = 0.2
REPS = 2


@dataclass(frozen=True)
class _Hit:
    index: int
    score: float


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)  # fixed: the reference never varies
        self._points = rng.random((3072, 3))
        self._queries = rng.random((200, 3))
        self._gallery = rng.normal(size=(5000, 32))
        self._few = rng.normal(size=(96, 64))
        self._rows = rng.integers(0, 96, size=32)
        self.times = []  # now() at each sample
        self.took = {part: [] for part in PARTS}  # seconds, per sample
        self.spent = 0.0  # clock() seconds spent sampling
        self._sampling = False

    def _tree(self):
        cKDTree(self._points).query(self._queries, k=1)

    def _boxes(self):
        v = self._gallery
        np.prod(np.maximum(0.0, v) + 5.0 * np.log1p(np.exp(-np.abs(v) / 5.0)), axis=1)

    def _small(self):
        lo, hi = self._few[:, :32], self._few[:, 32:]
        grad = np.zeros_like(self._few)
        for q in range(8):
            v = np.minimum(hi, hi[q]) - np.maximum(lo, lo[q])
            score = np.prod(np.maximum(0.0, v) + np.log1p(np.exp(-np.abs(v))), axis=1)
            hits = [_Hit(int(i), float(score[i])) for i in np.argsort(-score, kind="stable")[:10]]
            labels = ["near" if h.score > 1.0 else "far" for h in hits]
            np.add.at(grad, self._rows, score[self._rows, None] * self._few[self._rows])
        return labels, grad

    def now(self) -> float:
        """clock() minus the time spent sampling the reference."""
        while True:
            spent = self.spent
            t = clock()
            if spent == self.spent:
                return t - spent

    def sample(self) -> None:
        if self._sampling:
            return
        self._sampling = True
        start = clock()
        at = start - self.spent
        for _ in range(REPS):
            self.times.append(at)
            for part in PARTS:
                t = clock()
                getattr(self, f"_{part}")()
                self.took[part].append(clock() - t)
        self.spent += clock() - start
        self._sampling = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample on entry, every INTERVAL_S inside the block, and on exit."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def scale(self, parts=PARTS, start: float = float("-inf"),
              end: float = float("inf"), margin: float = INTERVAL_S) -> float:
        """Nominal over the median time of the given parts sampled within
        margin of [start, end] on now(), or over the whole run if none was."""
        lo = bisect_left(self.times, start - margin)
        hi = bisect_right(self.times, end + margin)
        if lo == hi:
            lo, hi = 0, len(self.times)
        took = [sum(self.took[p][i] for p in parts) for i in range(lo, hi)]
        return sum(NOMINAL_S[p] for p in parts) / statistics.median(took)

    def median_ms(self) -> dict:
        return {p: 1e3 * statistics.median(self.took[p]) for p in PARTS}
