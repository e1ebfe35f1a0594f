"""Retrieval over box embeddings: ranking, relation labels, relative scale.

Hard-overlap queries keep only the boxes that meet the query in a few key
dimensions, tested in one vectorised pass over the gallery, and score them
exactly in full dimension; smoothed-overlap queries score the whole
gallery against its box volumes, computed once per index and smoothing.
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
    nbo_qr: float
    nbo_rq: float


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
    return RelationLabel(label, nbo_qr, nbo_rq)


def estimate_scale(nbo_qr: float, nbo_rq: float, n_q: int, n_r: int) -> float:
    """Resize factor for the query so the co-visible surface covers equal pixels."""
    if nbo_qr <= 0:
        raise ValueError("no estimated overlap")
    return math.sqrt((n_r / n_q) * (nbo_rq / nbo_qr))


def _directed(inter, vol_q, vol_r):
    """(enclosure, concentration): the intersection over each box's volume."""
    boxes.check_volume(vol_q)
    concentration = np.where(vol_r > 0, inter / np.where(vol_r > 0, vol_r, 1.0), 0.0)
    return inter / vol_q, concentration


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


class BoxIndex:
    """Immutable index over box embeddings.

    Hard-overlap queries are filtered on the (up to) 3 dimensions with the
    widest endpoint spread across the gallery; surviving candidates are
    scored exactly in full dimension. Full-gallery scans reuse the gallery's
    box volumes, kept per smoothing; the bounds are read-only, so the kept
    volumes cannot go stale.
    """

    def __init__(self, ids, lowers, uppers):
        order = np.argsort(np.asarray(ids, dtype=object))
        self.ids = [ids[i] for i in order]
        self.lowers = np.asarray(lowers, dtype=np.float64)[order]
        self.uppers = np.asarray(uppers, dtype=np.float64)[order]
        # A NaN bound compares false. An infinite one is legal: finite params make one.
        if not (self.lowers <= self.uppers).all():
            row = np.argmin((self.lowers <= self.uppers).all(axis=1))
            raise ValueError(f"box {self.ids[row]}: a bound is NaN or lower > upper")
        self.lowers.setflags(write=False)
        self.uppers.setflags(write=False)
        self._volumes = {}  # SmoothingConfig -> (n,) gallery box volumes
        if len(self.ids) == 0:
            self.key_dims = np.arange(0)
            return
        # Bounds wider than about 1e154 square past the float range: their
        # spread is inf, which ranks that dimension first. An infinite bound
        # makes it NaN, which ranks as inf: that dimension is the widest too.
        with np.errstate(over="ignore", invalid="ignore"):
            spread = self.lowers.var(axis=0) + self.uppers.var(axis=0)
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
        q_lo = q.lower[self.key_dims]
        q_hi = q.upper[self.key_dims]
        hit = (self._key_lo <= q_hi) & (self._key_hi >= q_lo)
        return np.flatnonzero(hit.all(axis=1))

    def _exact_scores(self, q: BoxEmbedding, cfg: SmoothingConfig, rows=slice(None)):
        """Exact (enclosure, concentration) of the query against the given rows."""
        return _directed(*boxes.overlap(q.lower, q.upper,
                                        self.lowers[rows], self.uppers[rows], cfg))

    def _scan_scores(self, q: BoxEmbedding, cfg: SmoothingConfig):
        """_exact_scores of the whole gallery, with its volumes computed once per cfg."""
        vol_r = self._volumes.get(cfg)
        if vol_r is None:
            vol_r = self._volumes[cfg] = boxes.volumes(self.lowers, self.uppers, cfg)
        inter = boxes.intersection(q.lower, q.upper, self.lowers, self.uppers, cfg)
        return _directed(inter, boxes.volumes(q.lower, q.upper, cfg), vol_r)

    def _scores(self, q: BoxEmbedding, cfg: SmoothingConfig):
        """Scores of every entry; hard queries score only the key-dimension candidates."""
        if not cfg.hard:
            return self._scan_scores(q, cfg)
        cand = self._candidates(q)
        if len(cand) == len(self.ids):
            return self._exact_scores(q, cfg)
        enclosure = np.zeros(len(self.ids))
        concentration = np.zeros(len(self.ids))
        if len(cand):
            enclosure[cand], concentration[cand] = self._exact_scores(q, cfg, cand)
        return enclosure, concentration

    def query_topk(self, q: BoxEmbedding, k: int,
                   cfg: SmoothingConfig = HARD) -> list[QueryResult]:
        """Top-k gallery entries by mean of the two directed overlaps.

        Ties are broken by ascending id; identical to an exhaustive scan.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(self.ids) == 0:
            return []
        enclosure, concentration = self._scores(q, cfg)
        score = 0.5 * (enclosure + concentration)
        return self._results(enclosure, concentration, score, _top(score, k))

    def query_topk_exhaustive(self, q: BoxEmbedding, k: int,
                              cfg: SmoothingConfig = HARD) -> list[QueryResult]:
        """Oracle path: full scan with fresh volumes, no pruning and a full sort."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(self.ids) == 0:
            return []
        enclosure, concentration = self._exact_scores(q, cfg)
        score = 0.5 * (enclosure + concentration)
        order = np.argsort(-score, kind="stable")[:k]
        return self._results(enclosure, concentration, score, order)

    def _results(self, enclosure, concentration, score, order):
        return [
            QueryResult(self.ids[i], e, c, s)
            for i, e, c, s in zip(order.tolist(), enclosure[order].tolist(),
                                  concentration[order].tolist(), score[order].tolist())
        ]
