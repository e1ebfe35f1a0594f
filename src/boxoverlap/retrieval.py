"""Retrieval over box embeddings: ranking, relation labels, relative scale.

Hard-overlap queries keep only the boxes that meet the query in the 6
widest dimensions of the gallery, tested in one pass over their
dimension-major rows, then only the candidates that meet it in every
dimension, and score those exactly, with the first k rows. Every other box
scores 0, so the exhaustive scan's stable sort of these rows' scores gives
its top k. A query that meets the key dimensions' core (the gallery's
largest lower and smallest upper bound in each), as on trained galleries,
keeps every row untested. A hard query that keeps every row, and every
smoothed one, scans the whole gallery dimension-major against its volumes,
stored once per smoothing, and selects its top k without sorting the whole
gallery, so results are always identical to a full scan. An empty gallery
takes the same path: every query meets its core, and a scan of 0 rows
answers [].
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

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

# The widest dimensions a hard query is first filtered on: about 9 of 5000
# random D=32 boxes pass, where 3 passed about 200 and 8 cut no more time.
_KEY_DIMS = 6


class RelationLabel(NamedTuple):
    label: str


class QueryResult(NamedTuple):
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


def _directed(inter, vol_q, vol_r, masked=True):
    """(enclosure, concentration): the intersection over each box's volume, the
    concentration +0.0 against a volume that is not positive (0, or NaN from
    inf * 0). masked=False, for volumes known positive, skips that mask."""
    concentration = (np.where(vol_r > 0, inter / np.where(vol_r > 0, vol_r, 1.0), 0.0)
                     if masked else inter / vol_r)
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


def _meets(lowers, uppers, q_lo, q_hi, axis=1):
    """Whether each box meets the query in every dimension given, edges included;
    the dimensions run along axis."""
    return ((lowers <= q_hi) & (uppers >= q_lo)).all(axis=axis)


class BoxIndex:
    """Immutable index over box embeddings.

    Hard-overlap queries are filtered on the (up to) 6 dimensions with the
    widest endpoint spread across the gallery, read from dimension-major
    (6, n) rows, unless the query meets those dimensions' core, the largest
    lower and smallest upper bound in each, stored at build; then the
    surviving candidates on every dimension. Those that meet the query, and
    the first k rows, are scored exactly, every other row scores 0, and a
    hard top k ranks those rows by the exhaustive scan's stable sort.
    A hard query that keeps the whole gallery, and every smoothed query, is
    scored whole by one scan over dimension-major copies of the bounds and
    the gallery's volumes, stored per smoothing on first use with whether all
    are positive, so the scan divides by them directly; the bounds are
    read-only, so the stored volumes cannot go stale. Ids must be unique.
    An empty index, of (0, D) bounds, checks each query as any other does.
    """

    def __init__(self, ids, lowers, uppers):
        lowers = np.asarray(lowers, dtype=np.float64)
        uppers = np.asarray(uppers, dtype=np.float64)
        if lowers.ndim != 2 or lowers.shape != uppers.shape or len(lowers) != len(ids):
            raise ValueError(f"bounds must be two (n, D) arrays with one row per id: "
                             f"{len(ids)} ids, lowers {lowers.shape}, uppers {uppers.shape}")
        # Ids from `train` arrive strictly ascending: no sort or repeat check then.
        if all(map(operator.lt, ids, ids[1:])):
            self.ids = list(ids)
            self.lowers, self.uppers = lowers.copy(), uppers.copy()
        else:
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
        self._volumes = {}  # SmoothingConfig -> ((n,) volumes, whether any is not > 0)
        # Bounds wider than about 1e154 square past the float range: their
        # spread is inf, which ranks that dimension first. An infinite bound
        # makes it NaN, which ranks as inf: that dimension is the widest too.
        with np.errstate(over="ignore", invalid="ignore"):
            spread = _variance(self.lowers) + _variance(self.uppers)
        spread[np.isnan(spread)] = np.inf
        self.key_dims = np.argsort(-spread, kind="stable")[:_KEY_DIMS]
        # Dimension-major key rows: the key test runs over contiguous rows of n.
        self._key_lo = self._lowers_t[self.key_dims]
        self._key_hi = self._uppers_t[self.key_dims]
        # The key dimensions' core: a query that meets it meets every box
        # there, and every query meets an empty gallery's.
        self._core_lo = np.maximum.reduce(self._key_lo, axis=1, initial=-np.inf)
        self._core_hi = np.minimum.reduce(self._key_hi, axis=1, initial=np.inf)

    @classmethod
    def build(cls, table) -> "BoxIndex":
        """Index every entry of a box-kind embedding table."""
        lowers, uppers = table.bounds()
        return cls(table.ids, lowers, uppers)

    def __len__(self) -> int:
        return len(self.ids)

    def _candidates(self, q: BoxEmbedding) -> np.ndarray:
        """Indices that may intersect the query in the key dimensions: every
        row, untested, when the query meets the key dimensions' core."""
        lo, hi = q.lower[self.key_dims], q.upper[self.key_dims]
        if _meets(self._core_lo, self._core_hi, lo, hi, axis=0):
            return np.arange(len(self.ids))
        return _meets(self._key_lo, self._key_hi, lo[:, None], hi[:, None], axis=0).nonzero()[0]

    def _exact_scores(self, q: BoxEmbedding, cfg: SmoothingConfig, vol_q, rows=None):
        """Exact (enclosure, concentration) of the query, of volume vol_q,
        against the given rows, or every row."""
        lowers, uppers = self.lowers, self.uppers
        if rows is not None:  # take gathers rows faster than fancy indexing
            lowers, uppers = lowers.take(rows, 0), uppers.take(rows, 0)
        return _directed(boxes.intersection(q.lower, q.upper, lowers, uppers, cfg), vol_q,
                         boxes.volumes(lowers, uppers, cfg))

    def _scan_scores(self, q: BoxEmbedding, cfg: SmoothingConfig, vol_q):
        """_exact_scores of the whole gallery, its volumes computed once per cfg."""
        volumes = self._volumes.get(cfg)
        if volumes is None:
            vol_r = boxes.volumes(self._lowers_t, self._uppers_t, cfg, axis=0)
            volumes = self._volumes[cfg] = vol_r, not (vol_r > 0).all()
        inter = boxes.intersection(q.lower[:, None], q.upper[:, None],
                                   self._lowers_t, self._uppers_t, cfg, axis=0)
        return _directed(inter, vol_q, *volumes)

    def _check_query(self, q: BoxEmbedding, k: int, cfg: SmoothingConfig):
        """The query box's volume under cfg, checked even if no box is scored.
        Rejects a bad k or query box."""
        if k < 1:
            raise ValueError("k must be >= 1")
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
        if cfg.hard:
            cand = self._candidates(q)
            if len(cand) < len(self.ids):
                return self._ranked_candidates(q, vol_q, cand, k)
        # Trained tables send every hard query here; _ranked_candidates is slower.
        enclosure, concentration = self._scan_scores(q, cfg, vol_q)
        score = 0.5 * (enclosure + concentration)
        order = _top(score, k)
        return self._results(order.tolist(), enclosure[order], concentration[order],
                             score[order])

    def _ranked_candidates(self, q: BoxEmbedding, vol_q, cand, k):
        """Hard top k from the scores of the candidates that meet the query in
        every dimension and of the first k rows, by the exhaustive scan's
        stable sort.

        Every other row lies strictly apart from the query in some dimension
        and scores ±0, which the scan ranks after every positive score by
        ascending row. The rows scored ascend too, and the first k of them
        hold a zero-score row for each place the positive scores leave, so
        the stable sort takes the scan's rows, each with its own zero (-0.0
        for a box touching the query at -0.0). No hard score is NaN, which
        would sort after the zeros: the query's volume is checked finite and
        positive, so each width of its intersection with a box lies in [0,
        the query's width].
        """
        size = min(k, len(self.ids))
        cand = cand[_meets(self.lowers.take(cand, 0), self.uppers.take(cand, 0),
                           q.lower, q.upper)]
        rows = np.concatenate([np.arange(size), cand[cand.searchsorted(size):]])
        enclosure, concentration = self._exact_scores(q, HARD, vol_q, rows)
        score = 0.5 * (enclosure + concentration)
        order = np.argsort(-score, kind="stable")[:k]
        return self._results(rows[order].tolist(), enclosure[order], concentration[order],
                             score[order])

    def query_topk_exhaustive(self, q: BoxEmbedding, k: int,
                              cfg: SmoothingConfig = HARD) -> list[QueryResult]:
        """Oracle path: full scan with fresh volumes, no pruning and a full sort."""
        vol_q = self._check_query(q, k, cfg)
        enclosure, concentration = self._exact_scores(q, cfg, vol_q)
        score = 0.5 * (enclosure + concentration)
        order = np.argsort(-score, kind="stable")[:k]
        return self._results(order.tolist(), enclosure[order], concentration[order],
                             score[order])

    def _results(self, rows, enclosure, concentration, score):
        """One QueryResult per row, from its scores given in the same order."""
        return list(map(QueryResult._make, zip(map(self.ids.__getitem__, rows),
                                               enclosure.tolist(), concentration.tolist(),
                                               score.tolist())))
