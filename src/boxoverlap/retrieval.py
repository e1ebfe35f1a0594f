"""Retrieval over box embeddings: ranking, relation labels, relative scale.

Hard-overlap queries keep only the boxes that meet the query in a few key
dimensions, tested in one vectorised pass over the gallery, then only the
candidates that meet it in every dimension, and score those exactly, with
the first k rows. Every other box scores 0, so a hard top k ranks the rows
scoring above 0 and fills the places left with the lowest other ids, in
ascending order: past the key-dimension test its work follows the
candidates, not the gallery. Smoothed-overlap queries score the whole
gallery against its box volumes, computed once per index and smoothing.
The whole-gallery scan reads dimension-major (D, n) copies of the bounds,
so its product over dimensions runs over contiguous rows of n boxes, in
the same order and with the same bits as the row-major exact scores.
The top k are selected without sorting the whole gallery, so results are
always identical to a full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boxes
from .boxes import HARD, BoxEmbedding, SmoothingConfig

ZOOM_IN = "zoom-in"
ZOOM_OUT = "zoom-out"
CLONE_LIKE = "clone-like"
OBLIQUE_OR_CROP_OUT = "oblique-or-crop-out"
UNRELATED = "unrelated"

RELATION_LOW = 0.3
RELATION_HIGH = 0.6
RELATION_NOISE_FLOOR = 0.05


@dataclass(frozen=True)
class RelationLabel:
    label: str


@dataclass(frozen=True)
class QueryResult:
    id: str
    enclosure: float
    concentration: float
    score: float


def classify_relation(nbo_qr: float, nbo_rq: float) -> RelationLabel:
    """Relation of a retrieved image to the query from the two overlaps.

    Low query-to-retrieved overlap with high overlap back means the
    retrieved image is a close-up (zoom-in) of the query; the transpose is
    a zoom-out; both high is clone-like. Everything else is an oblique or
    crop-out relation unless both overlaps are negligible.
    """
    for v in (nbo_qr, nbo_rq):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"overlap value out of [0, 1]: {v}")
    if nbo_qr < RELATION_LOW and nbo_rq >= RELATION_HIGH:
        label = ZOOM_IN
    elif nbo_qr >= RELATION_HIGH and nbo_rq >= RELATION_HIGH:
        label = CLONE_LIKE
    elif nbo_qr >= RELATION_HIGH and nbo_rq < RELATION_LOW:
        label = ZOOM_OUT
    elif max(nbo_qr, nbo_rq) >= RELATION_NOISE_FLOOR:
        label = OBLIQUE_OR_CROP_OUT
    else:
        label = UNRELATED
    return RelationLabel(label)


def estimate_scale(nbo_qr: float, nbo_rq: float, n_q: int, n_r: int) -> float:
    """Resize factor for the query so the co-visible surface covers equal pixels."""
    if nbo_qr <= 0:
        raise ValueError("no estimated overlap")
    return math.sqrt((n_r / n_q) * (nbo_rq / nbo_qr))


def _directed(inter, vol_q, vol_r):
    """(enclosure, concentration): the intersection over each box's volume."""
    concentration = np.where(vol_r > 0, inter / np.where(vol_r > 0, vol_r, 1.0), 0.0)
    return inter / vol_q, concentration


def _variance(a):
    """a.var(axis=0), from the ufunc steps numpy's var runs, so with its bits
    but without its Python-level overhead."""
    mean = a.sum(axis=0)
    mean /= len(a)
    dev = a - mean
    np.multiply(dev, dev, out=dev)
    return dev.sum(axis=0) / len(a)


def _top(score, k):
    """The first k of np.argsort(-score, kind="stable"), without sorting every row.

    Only the rows scoring at least the k-th highest score are sorted, so
    ties across the k-th place are still broken by ascending row. A NaN
    score sorts last, as in the full sort: NaN rows are kept (NaN > kth is
    false) and sort after the k rows scoring at least kth; if kth is NaN,
    every row is kept.
    """
    neg = -score
    if k >= len(neg):
        return np.argsort(neg, kind="stable")
    kth = np.partition(neg, k - 1)[k - 1]
    rows = np.flatnonzero(~(neg > kth))
    return rows[np.argsort(neg[rows], kind="stable")[:k]]


# A hard query tests its key-dimension candidates in every dimension, and
# scores only those that pass, from this many candidates on. The test costs
# about 4-7 us of fixed numpy overhead. Per hard top-10 on random D=32
# galleries of 96 to 5000 boxes (best of 9 per query, 2-core Xeon), it took
# 59 us with the test and 59 us without at 16-31 candidates, 66 against
# 68 us at 32-63 and 89 against 110 us at 128-255. A random gallery of
# n=96 gives a query about 5 candidates, where the test would cost it
# 53 -> 57 us. The trained tables of the survey scene and the sparse grid
# (seed 7) give every query the whole gallery, 96 of 96 and 64 of 64
# candidates, which query_topk scores without the candidate path.
_MEET_TEST_MIN_CANDIDATES = 32


def _meets(lowers, uppers, q_lo, q_hi):
    """Whether each box meets the query in every dimension given, edges included."""
    return ((lowers <= q_hi) & (uppers >= q_lo)).all(axis=1)


class BoxIndex:
    """Immutable index over box embeddings.

    Hard-overlap queries are filtered on the (up to) 3 dimensions with the
    widest endpoint spread across the gallery, then the surviving candidates
    on every dimension. Those that meet the query, and the first k rows, are
    scored exactly in full dimension, and every other row scores 0. A hard
    top k ranks the rows scoring above 0 and fills the places left with the
    lowest other ids, so its cost follows the candidates, not the gallery.
    A query that keeps the whole gallery is scored and ranked whole.
    Full-gallery scans read dimension-major copies of the bounds and reuse
    the gallery's box volumes, kept per smoothing; the bounds are read-only,
    so the kept volumes cannot go stale. Ids must be unique.
    """

    def __init__(self, ids, lowers, uppers):
        lowers = np.asarray(lowers, dtype=np.float64)
        uppers = np.asarray(uppers, dtype=np.float64)
        if lowers.ndim != 2 or lowers.shape != uppers.shape or len(lowers) != len(ids):
            raise ValueError(f"bounds must be two (n, D) arrays with one row per id: "
                             f"{len(ids)} ids, lowers {lowers.shape}, uppers {uppers.shape}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids = [ids[i] for i in order]
        for a, b in zip(self.ids, self.ids[1:]):
            if a == b:
                raise ValueError(f"repeated image id: {a}")
        self.lowers = lowers.take(order, axis=0)
        self.uppers = uppers.take(order, axis=0)
        # A NaN bound compares false. An infinite one is legal: finite params make one.
        if not (self.lowers <= self.uppers).all():
            row = np.argmin((self.lowers <= self.uppers).all(axis=1))
            raise ValueError(f"box {self.ids[row]}: a bound is NaN or lower > upper")
        # Dimension-major copies for the full-gallery scan: its product over
        # dimensions then runs over contiguous rows of n.
        self._lowers_t = np.ascontiguousarray(self.lowers.T)
        self._uppers_t = np.ascontiguousarray(self.uppers.T)
        for bounds in (self.lowers, self.uppers, self._lowers_t, self._uppers_t):
            bounds.setflags(write=False)
        self._volumes = {}  # SmoothingConfig -> (n,) gallery box volumes
        if len(self.ids) == 0:
            self.key_dims = np.arange(0)
            return
        # Bounds wider than about 1e154 square past the float range: their
        # spread is inf, which ranks that dimension first. An infinite bound
        # makes it NaN, which ranks as inf: that dimension is the widest too.
        with np.errstate(over="ignore", invalid="ignore"):
            spread = _variance(self.lowers) + _variance(self.uppers)
        spread[np.isnan(spread)] = np.inf
        self.key_dims = np.argsort(-spread, kind="stable")[:3]
        self._key_lo = self.lowers[:, self.key_dims]
        self._key_hi = self.uppers[:, self.key_dims]

    @classmethod
    def build(cls, table) -> "BoxIndex":
        """Index every entry of a box-kind embedding table."""
        lowers, uppers = table.bounds()
        return cls(table.ids, lowers, uppers)

    def __len__(self) -> int:
        return len(self.ids)

    def _candidates(self, q: BoxEmbedding) -> np.ndarray:
        """Indices that may intersect the query in the key dimensions."""
        return _meets(self._key_lo, self._key_hi, q.lower[self.key_dims],
                      q.upper[self.key_dims]).nonzero()[0]

    def _exact_scores(self, q: BoxEmbedding, cfg: SmoothingConfig, vol_q, rows=None):
        """Exact (enclosure, concentration) of the query, of volume vol_q,
        against the given rows, or every row."""
        lowers, uppers = self.lowers, self.uppers
        if rows is not None:  # take gathers rows faster than fancy indexing
            lowers, uppers = lowers.take(rows, 0), uppers.take(rows, 0)
        return _directed(boxes.intersection(q.lower, q.upper, lowers, uppers, cfg), vol_q,
                         boxes.volumes(lowers, uppers, cfg))

    def _scan_scores(self, q: BoxEmbedding, cfg: SmoothingConfig, vol_q):
        """_exact_scores of the whole gallery, with its volumes computed once per cfg."""
        vol_r = self._volumes.get(cfg)
        if vol_r is None:
            vol_r = self._volumes[cfg] = boxes.volumes(self._lowers_t, self._uppers_t,
                                                       cfg, axis=0)
        inter = boxes.intersection(q.lower[:, None], q.upper[:, None],
                                   self._lowers_t, self._uppers_t, cfg, axis=0)
        return _directed(inter, vol_q, vol_r)

    def _check_query(self, q: BoxEmbedding, k: int, cfg: SmoothingConfig):
        """The query box's volume under cfg, checked even if no box is scored;
        None when the index is empty. Rejects a bad k or query box."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(self.ids) == 0:
            return None
        if q.dim != self.lowers.shape[1]:
            raise ValueError(f"dimension mismatch: {q.dim} vs {self.lowers.shape[1]}")
        vol_q = boxes.volumes(q.lower, q.upper, cfg)
        boxes.check_volume(vol_q)
        return vol_q

    def query_topk(self, q: BoxEmbedding, k: int,
                   cfg: SmoothingConfig = HARD) -> list[QueryResult]:
        """Top-k gallery entries by mean of the two directed overlaps.

        Ties are broken by ascending id; identical to an exhaustive scan.
        """
        vol_q = self._check_query(q, k, cfg)
        if vol_q is None:
            return []
        if not cfg.hard:
            return self._ranked(*self._scan_scores(q, cfg, vol_q), k)
        cand = self._candidates(q)
        # Every query of the trained survey and sparse-grid tables lands
        # here. Sending them through _ranked_candidates instead took a hard
        # top-10 from 83-103 to 142-147 us (survey) and 64-77 to 86-98 us
        # (sparse grid; seed 7, best of 7, 2-core Xeon).
        if len(cand) == len(self.ids):
            return self._ranked(*self._exact_scores(q, cfg, vol_q), k)
        return self._ranked_candidates(q, vol_q, cand, k)

    def _ranked(self, enclosure, concentration, k):
        """Top k of every row's scores."""
        score = 0.5 * (enclosure + concentration)
        order = _top(score, k)
        return self._results(order.tolist(), enclosure[order], concentration[order],
                             score[order])

    def _ranked_candidates(self, q: BoxEmbedding, vol_q, cand, k):
        """Hard top k from the scores of the candidates that meet the query in
        every dimension (all of them, if fewer than _MEET_TEST_MIN_CANDIDATES)
        and of the first k rows, the only ones a fill can take.

        Every other row lies strictly apart from the query in some dimension,
        so it scores ±0. The rows scoring above 0 rank first, by (-score,
        row); the places left go to the lowest other rows in ascending order,
        as in the stable full sort. Every fill row keeps its own zero score
        (-0.0 for a box that touches the query at -0.0). No hard score is NaN,
        which would sort after the zeros: the query's volume is checked finite
        and positive, so each width of its intersection with a box lies in
        [0, the query's width].
        """
        size = min(k, len(self.ids))
        if len(cand) >= _MEET_TEST_MIN_CANDIDATES:
            cand = cand[_meets(self.lowers.take(cand, 0), self.uppers.take(cand, 0),
                               q.lower, q.upper)]
        # Position i < size scores row i, so a fill row is its own position.
        rows = np.concatenate([np.arange(size), cand[cand.searchsorted(size):]])
        enclosure, concentration = self._exact_scores(q, HARD, vol_q, rows)
        score = 0.5 * (enclosure + concentration)
        hit = (score > 0).nonzero()[0]
        if len(hit) > 1:
            hit = hit[_top(score[hit], k)]
        hit = hit.tolist()
        taken = set(hit)
        pick = np.array(hit + [r for r in range(size) if r not in taken][:size - len(hit)])
        return self._results(rows[pick].tolist(), enclosure[pick], concentration[pick],
                             score[pick])

    def query_topk_exhaustive(self, q: BoxEmbedding, k: int,
                              cfg: SmoothingConfig = HARD) -> list[QueryResult]:
        """Oracle path: full scan with fresh volumes, no pruning and a full sort."""
        vol_q = self._check_query(q, k, cfg)
        if vol_q is None:
            return []
        enclosure, concentration = self._exact_scores(q, cfg, vol_q)
        score = 0.5 * (enclosure + concentration)
        order = np.argsort(-score, kind="stable")[:k]
        return self._results(order.tolist(), enclosure[order], concentration[order],
                             score[order])

    def _results(self, rows, enclosure, concentration, score):
        """One QueryResult per row, from its scores given in the same order."""
        return [
            QueryResult(self.ids[i], e, c, s)
            for i, e, c, s in zip(rows, enclosure.tolist(), concentration.tolist(),
                                  score.tolist())
        ]
