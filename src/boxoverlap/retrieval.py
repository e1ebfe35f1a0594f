"""Retrieval over box embeddings: ranking, relation labels, relative scale.

Hard-overlap queries keep only the boxes that meet the query in a few key
dimensions, tested in one vectorised pass over the gallery, and score them
exactly in full dimension; smoothed-overlap queries score the whole
gallery, so results are always identical to a full scan.
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


def classify_relation(nbo_qr: float, nbo_rq: float,
                      t_low: float = 0.3, t_high: float = 0.6) -> RelationLabel:
    """Relation of a retrieved image to the query from the two overlaps.

    Low query-to-retrieved overlap with high overlap back means the
    retrieved image is a close-up (zoom-in) of the query; the transpose is
    a zoom-out; both high is clone-like. Everything else is an oblique or
    crop-out relation unless both overlaps are negligible.
    """
    for v in (nbo_qr, nbo_rq):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"overlap value out of [0, 1]: {v}")
    if nbo_qr < t_low and nbo_rq >= t_high:
        label = ZOOM_IN
    elif nbo_qr >= t_high and nbo_rq >= t_high:
        label = CLONE_LIKE
    elif nbo_qr >= t_high and nbo_rq < t_low:
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


class BoxIndex:
    """Immutable index over box embeddings.

    Hard-overlap queries are filtered on the (up to) 3 dimensions with the
    widest endpoint spread across the gallery; surviving candidates are
    scored exactly in full dimension.
    """

    def __init__(self, ids, lowers, uppers):
        order = np.argsort(np.asarray(ids, dtype=object))
        self.ids = [ids[i] for i in order]
        self.lowers = np.asarray(lowers, dtype=np.float64)[order]
        self.uppers = np.asarray(uppers, dtype=np.float64)[order]
        if len(self.ids) == 0:
            self.key_dims = np.arange(0)
            return
        spread = self.lowers.var(axis=0) + self.uppers.var(axis=0)
        self.key_dims = np.argsort(-spread, kind="stable")[:3]
        self._key_lo = self.lowers[:, self.key_dims]
        self._key_hi = self.uppers[:, self.key_dims]

    @classmethod
    def build(cls, table) -> "BoxIndex":
        """Index every entry of a box-kind embedding table."""
        if table.kind != "box":
            raise ValueError("index requires a box-kind table")
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
        inter, vol_q, vol_r = boxes.overlap(q.lower, q.upper,
                                            self.lowers[rows], self.uppers[rows], cfg)
        if vol_q == 0.0:
            raise boxes.DegenerateBoxError("degenerate query box")
        concentration = np.where(vol_r > 0, inter / np.where(vol_r > 0, vol_r, 1.0), 0.0)
        return inter / vol_q, concentration

    def _scores(self, q: BoxEmbedding, cfg: SmoothingConfig):
        """Scores of every entry; hard queries score only the key-dimension candidates."""
        if not cfg.hard:
            return self._exact_scores(q, cfg)
        enclosure = np.zeros(len(self.ids))
        concentration = np.zeros(len(self.ids))
        cand = self._candidates(q)
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
        return self._rank(enclosure, concentration, k)

    def query_topk_exhaustive(self, q: BoxEmbedding, k: int,
                              cfg: SmoothingConfig = HARD) -> list[QueryResult]:
        """Oracle path: full scan with no pruning."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(self.ids) == 0:
            return []
        enclosure, concentration = self._exact_scores(q, cfg)
        return self._rank(enclosure, concentration, k)

    def _rank(self, enclosure, concentration, k):
        score = 0.5 * (enclosure + concentration)
        order = np.argsort(-score, kind="stable")[:k]
        return [
            QueryResult(self.ids[i], float(enclosure[i]),
                        float(concentration[i]), float(score[i]))
            for i in order
        ]

    def query_quadrant(self, q: BoxEmbedding, enclosure_range, concentration_range,
                       cfg: SmoothingConfig = HARD) -> list[QueryResult]:
        """All entries whose (enclosure, concentration) fall in the rectangle.

        Range membership is half-open, lo <= v < hi, except that hi == 1
        also admits v == 1, so bands partitioning [0, 1]^2 cover each entry
        exactly once.
        """
        for lo, hi in (enclosure_range, concentration_range):
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"invalid range: ({lo}, {hi})")
        enclosure, concentration = self._exact_scores(q, cfg)

        def inside(v, rng):
            lo, hi = rng
            return (v >= lo) & ((v < hi) | ((hi == 1.0) & (v == 1.0)))

        keep = inside(enclosure, enclosure_range) & inside(concentration, concentration_range)
        return [
            QueryResult(self.ids[i], float(enclosure[i]), float(concentration[i]),
                        float(0.5 * (enclosure[i] + concentration[i])))
            for i in np.nonzero(keep)[0]
        ]
