"""Retrieval over box embeddings: ranking, relation labels, relative scale.

A top-k query takes one path: pick the rows to score, score them exactly,
rank them. A hard query keeps the boxes that meet it in the first six
dimensions, the key dimensions, tested in one pass over their
dimension-major rows, then those that meet it in every dimension, and the
first k rows; every other box scores 0. One that meets the key dimensions'
core (the gallery's largest lower and smallest upper bound in each), as on
trained galleries, keeps every row untested. A smoothed query on a gallery
of more than 1024 boxes scores every box in float32 and keeps the rows
that a proven error bound cannot rule out of the top k; where the bound
cannot be certified, and on smaller galleries, it keeps every row. The
rows kept are scored exactly, and every row by one scan of the
dimension-major bounds, in blocks of 1024 columns that stay in a core's L2
cache, against volumes stored on first use under each smoothing. One
ranking, the first k of the exhaustive scan's stable sort, orders the
scores, so results are always identical to a full scan. An empty gallery
keeps every row, and a scan of 0 rows answers [].
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

# A hard query is first filtered on the first six dimensions: about 9 of
# 5000 random D=32 boxes pass, where 3 passed about 200 and 8 cut no more time.
_KEY_DIMS = 6
# Columns a gallery scan reads at a time: at D=32 a block and its temporaries fit a 2 MiB L2.
_BLOCK = 1024
# Up to this many scores _top sorts whole: at k=10 one stable argsort of 320
# distinct scores took 5.5 us against 6.8 us for its partition, and of 384
# 6.5 us for both (numpy 2.4, best of 7); mostly-zero scores sort faster.
_SORT_ALL = 384
# The float32 filter's bound (see BoxIndex._filtered). softplus32's relative
# error over the widths the filter admits: at most 4.7 * 2**-24 measured
# with numpy 2.4's AVX-512 exp and log1p (tests/test_retrieval.py checks
# this constant), taken with a margin.
_SOFTPLUS32_ERR = 16 * 2.0 ** -24
# How far above and below 1 rho and the float32 values the filter certifies
# may range: inside float32's normal range [2**-126, 2**128), with 2**9 to
# spare below once the band is taken off and 2**12 above.
_F32_RANGE = 2.0 ** 116
# The largest |log2 rho^D| the filter admits, so that every float64 partial
# product a certified row's exact score takes is normal.
_SCALE_LOG2_MAX = 900.0
# The widest query width, over rho, the filter admits: float32 exp overflows past 88.7.
_WIDTH_MAX = 64.0
# The widest relative band below the k-th score the filter keeps; past it
# the bound keeps too many rows to save time.
_BAND_MAX = 2.0 ** -6
# What the threshold gives up besides the band: float64 rounding on the
# exact side, subnormal float32 values and the threshold's own rounding.
_SLACK = 2.0 ** -20


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
    inf * 0). masked=False, for volumes known positive, skips that mask.

    Both are capped at 1.0: float64 sigma is not monotone at the last bit, so
    a narrower width can give a factor an ulp above the box's own, and an
    overlap an ulp above 1.
    """
    concentration = (np.where(vol_r > 0, inter / np.where(vol_r > 0, vol_r, 1.0), 0.0)
                     if masked else inter / vol_r)
    enclosure = inter / vol_q
    np.minimum(enclosure, 1.0, out=enclosure)
    np.minimum(concentration, 1.0, out=concentration)
    return enclosure, concentration


def _top(score, k):
    """The first k of np.argsort(-score, kind="stable"), without sorting every row.

    Up to max(k, _SORT_ALL) rows take that sort, which is faster there.
    Past that only the rows scoring at least the k-th highest score are
    sorted, so ties across the k-th place are still broken by ascending
    row. A NaN score sorts last, as in the full sort: NaN rows are kept
    (NaN > kth is false) and sort after the k rows scoring at least kth; if
    kth is NaN, every row is kept.
    """
    neg = -score
    if len(neg) <= max(k, _SORT_ALL):
        return np.argsort(neg, kind="stable")[:k]
    kth = np.partition(neg, k - 1)[k - 1]
    rows = np.flatnonzero(~(neg > kth))
    return rows[np.argsort(neg[rows], kind="stable")[:k]]


def _band(span, dim):
    """How far below its score in exact arithmetic, relatively, a row's
    float32 score in BoxIndex._filtered may lie: 1 - (1 - eps)^dim (1 -
    2^-24)^(dim + 3), eps per factor of the intersection and 2^-24 per
    float32 product, bounded here by one more factor of each. span is the
    largest |bound| / rho of the gallery and the query."""
    eps = min(1.0, 2.0 ** -24 * 9.0 * span + _SOFTPLUS32_ERR)
    return 1.0 - ((1.0 - eps) * (1.0 - 2.0 ** -24)) ** (dim + 4)


def _meets(lowers, uppers, q_lo, q_hi, axis=1):
    """Whether each box meets the query in every dimension given, edges included;
    the dimensions run along axis."""
    return ((lowers <= q_hi) & (uppers >= q_lo)).all(axis=axis)


class BoxIndex:
    """Immutable index over box embeddings; the module docstring gives its
    one query path.

    The build keeps dimension-major copies of the bounds, in column blocks
    of _BLOCK, and the core of the key dimensions, the first six, whose
    rows it reads from those copies. The gallery's volumes, with whether all
    are positive, and the filter's float32 data are filled on first use
    under a smoothing and stored; the bounds are read-only, so neither can
    go stale. Ids must be unique. An empty index, of (0, D) bounds, checks
    each query as any other does.
    """

    def __init__(self, ids, lowers, uppers):
        self._own(ids, np.asarray(lowers, dtype=np.float64),
                  np.asarray(uppers, dtype=np.float64), copy=True)

    def _own(self, ids, lowers, uppers, copy=False):
        """Index float64 (n, D) bounds, kept as given (build's, fresh) unless copy."""
        if lowers.ndim != 2 or lowers.shape != uppers.shape or len(lowers) != len(ids):
            raise ValueError(f"bounds must be two (n, D) arrays with one row per id: "
                             f"{len(ids)} ids, lowers {lowers.shape}, uppers {uppers.shape}")
        # Ids from `train` arrive strictly ascending: no sort or repeat check then.
        if all(map(operator.lt, ids, ids[1:])):
            self.ids = list(ids)
            self.lowers, self.uppers = (lowers.copy(), uppers.copy()) if copy else (lowers, uppers)
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
        # The scan's (columns, lowers, uppers) blocks of up to _BLOCK columns;
        # an empty gallery has one empty block.
        self._blocks = [(slice(s, s + _BLOCK), self._lowers_t[:, s:s + _BLOCK],
                         self._uppers_t[:, s:s + _BLOCK])
                        for s in range(0, max(len(self.ids), 1), _BLOCK)]
        self._volumes = {}  # SmoothingConfig -> ((n,) volumes, whether any is not > 0)
        self._float32 = {}  # SmoothingConfig -> the filter's float32 data, or None
        # Dimension-major key rows: the key test runs over contiguous rows of n.
        self._key_lo = self._lowers_t[:_KEY_DIMS]
        self._key_hi = self._uppers_t[:_KEY_DIMS]
        # The key dimensions' core: a query that meets it meets every box
        # there, and every query meets an empty gallery's.
        self._core_lo = np.maximum.reduce(self._key_lo, axis=1, initial=-np.inf)
        self._core_hi = np.minimum.reduce(self._key_hi, axis=1, initial=np.inf)

    @classmethod
    def build(cls, table) -> "BoxIndex":
        """Index every entry of a box-kind embedding table."""
        index = cls.__new__(cls)
        index._own(table.ids, *table.bounds())
        return index

    def __len__(self) -> int:
        return len(self.ids)

    def _candidates(self, q: BoxEmbedding) -> np.ndarray:
        """Indices that may intersect the query in the key dimensions: every
        row, untested, when the query meets the key dimensions' core."""
        lo, hi = q.lower[:_KEY_DIMS], q.upper[:_KEY_DIMS]
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

    def _stored_volumes(self, cfg: SmoothingConfig):
        """The gallery's stored volumes under cfg, with whether any is not > 0;
        filled block by block on first use."""
        stored = self._volumes.get(cfg)
        if stored is None:
            vol_r = np.empty(len(self.ids))
            for cols, lowers, uppers in self._blocks:
                boxes.volumes(lowers, uppers, cfg, axis=0, out=vol_r[cols])
            stored = self._volumes[cfg] = vol_r, not (vol_r > 0).all()
        return stored

    def _float32_data(self, cfg: SmoothingConfig):
        """The filter's data under cfg: (span, scale, floor, lower and upper
        bounds over rho as float32 (D, n) arrays, (n,) float32 0.5 * scale /
        volume), or None when no query can be certified.

        The bounds and rho are rounded to float32 and divided in float32;
        span is the largest |bound| / rho among those quotients, inf for a
        bound past float32's range. scale is rho^D and floor (ln 2)^D, the
        least product over dimensions of softplus(width / rho), widths
        being >= 0. The float32 0.5 * scale / volume comes from the stored
        float64 volumes, which must all be finite and positive.
        """
        vol_r = self._stored_volumes(cfg)[0]
        rho, dim = cfg.rho, self.lowers.shape[1]
        floor = math.log(2.0) ** dim
        if not (floor * _F32_RANGE >= 1.0 and 1.0 / _F32_RANGE <= rho <= _F32_RANGE
                and abs(dim * math.log2(rho)) <= _SCALE_LOG2_MAX
                and 0.0 < vol_r.min() <= vol_r.max() < np.inf):
            return None
        with np.errstate(over="ignore"):
            lowers, uppers = (np.divide(bounds, np.float32(rho), dtype=np.float32)
                              for bounds in (self._lowers_t, self._uppers_t))
        span = float(max(uppers.max(initial=0.0), -lowers.min(initial=0.0)))
        if not _band(span, dim) <= _BAND_MAX:
            return None
        scale = rho ** dim
        return span, scale, floor, lowers, uppers, np.divide(0.5 * scale, vol_r).astype(np.float32)

    def _filtered(self, q: BoxEmbedding, cfg: SmoothingConfig, vol_q, k):
        """Ascending rows that hold the exact top k of a smoothed query, ties
        across the k-th place included, or None when the float32 bound
        cannot be certified or the gallery is one block, which the scan
        serves as fast.

        Every row is scored in float32 as F (a + h): F is the product over
        dimensions of boxes.softplus32(x), x the intersection's width over
        rho from the bounds over rho rounded to float32, so that rho^D F is
        the intersection; a = 0.5 rho^D / vol_q and h = 0.5 rho^D / vol_r,
        rounded to float32 from float64 (h from the stored volumes). The k
        rows scoring highest are scored exactly. The least of those k
        exact scores, t, is at most the exhaustive scan's k-th score, so
        each row of its top k scores t or more, and the float32 score of
        such a row is at least the threshold t (1 - band) (1 - _SLACK).
        The rows kept, those at or above the threshold, hold them all.

        The bound. Take a row's score s in exact arithmetic, where softplus
        is monotone: each factor of the intersection is at most the
        query's and the box's, and each overlap at most 1. With S the
        largest |bound| / rho of the gallery and the query, the float32
        score is at least s (1 - _band(S, D)):
        - each bound over rho lies within 3 * 2^-24 S of the exact quotient:
          a gallery bound and rho each round to float32 before a float32
          division, a query bound rounds once after a float64 division.
          (rho lies within 2^+-116, so a bound that rounds to a subnormal
          float32 errs by at most 2^-150 / rho <= 2^-34 in x.) x, their
          difference rounded once more, lies within 8 * 2^-24 S of the
          exact width over rho: the rounding scales with S, not with the
          width. Since |d ln softplus(x) / dx| <= 1, the factor lies within
          that relatively. eps counts 9 * 2^-24 S, the rest covering S
          itself being taken from rounded quotients.
        - softplus32's float32 exp and log1p err by at most _SOFTPLUS32_ERR
          relatively over the x admitted below, the constant
          tests/test_retrieval.py measures; eps adds it.
        - the products: D - 1 in F, then a, h, a + h and F (a + h) round
          once each, by 2^-24 while their values are normal.
        - overflow and underflow. Each factor of the query's and of a box's
          F is at least ln 2, widths being >= 0, so each such F is at least
          floor = (ln 2)^D, and a and h at most 0.5 / floor <= 2^115. A
          partial product of a row's F is at most the query's F over floor,
          checked at most _F32_RANGE; x is at most the query's widest
          float32 width, as rounding is monotone, checked at most
          _WIDTH_MAX (float32 exp overflows past 88.7); F (a + h) is about
          s <= 1. A row with s >= t has an overlap of at least t, so each
          partial product of its F is at least t times the query's or the
          box's over the same dimensions, so at least t floor, which is
          checked at least 1 / _F32_RANGE:
          its factors, exp outputs and partial products are normal with
          2^9 to spare, and its x at least ln(2^-117). a is at least 0.5 /
          (floor _F32_RANGE) >= 2^-117, so where h underflows (a box whose
          volume passes the query's by about 2^126: its concentration
          vanishes beside an enclosure up to 1) h's error, at most 2^-150,
          moves a + h by under 2^-32 relatively.
        The exhaustive scan rounds in float64: a factor, with sigma's own
        exp and log1p, within about (4 S + 20) 2^-53 relatively, and a few
        products and divisions more. floor >= 2^-116 keeps D <= 219 and
        _BAND_MAX keeps D S < 2^15, so its scores lie within 2^-35 of the
        exact ones; |log2 rho^D| <= _SCALE_LOG2_MAX keeps each of its
        partial products normal in a row scoring t or more. Its rounding
        may leave a factor an ulp above that of a wider width, and an
        overlap an ulp above 1, as float64 sigma is not monotone at the last
        bit: _directed caps both overlaps at 1, which only lowers a score.
        _SLACK covers that rounding, rho^D's, subnormal bounds, h's
        underflow and the threshold's rounding to float32.

        A query falls back to the float64 scan when a check fails: bounds
        or volumes not finite (volumes also positive), rho or rho^D out of
        range, S wide enough that the band passes _BAND_MAX, the query
        wider than _WIDTH_MAX or its F past the range, t floor under 1 /
        _F32_RANGE, k or the rows kept more than _BLOCK.
        """
        if len(self._blocks) == 1 or k > _BLOCK:
            return None
        data = self._float32.get(cfg, False)
        if data is False:
            data = self._float32[cfg] = self._float32_data(cfg)
        if data is None:
            return None
        span, scale, floor, lowers, uppers, half = data
        q_lo, q_hi = q.lower / cfg.rho, q.upper / cfg.rho
        band = _band(max(span, q_hi.max(initial=0.0), -q_lo.min(initial=0.0)), len(lowers))
        if not (band <= _BAND_MAX and vol_q <= floor * _F32_RANGE * scale):
            return None
        q_lo, q_hi = q_lo.astype(np.float32)[:, None], q_hi.astype(np.float32)[:, None]
        if not (q_hi - q_lo).max(initial=0.0) <= _WIDTH_MAX:
            return None
        score = np.empty(len(self.ids), np.float32)
        for cols, _, _ in self._blocks:
            x = np.minimum(q_hi, uppers[:, cols])
            x -= np.maximum(q_lo, lowers[:, cols])
            np.multiply.reduce(boxes.softplus32(x), axis=0, out=score[cols])
        score *= half + np.float32(0.5 * scale / vol_q)
        top = np.argpartition(score, -k)[-k:]
        enclosure, concentration = self._exact_scores(q, cfg, vol_q, top)
        t = float((0.5 * (enclosure + concentration)).min())
        if not t * floor * _F32_RANGE >= 1.0:
            return None
        rows = np.flatnonzero(score >= np.float32(t * (1.0 - band) * (1.0 - _SLACK)))
        return rows if len(rows) <= _BLOCK else None

    def _scan_scores(self, q: BoxEmbedding, cfg: SmoothingConfig, vol_q):
        """_exact_scores of the whole gallery, block by block of columns,
        against its stored volumes."""
        stored = self._stored_volumes(cfg)
        lo, hi = q.lower[:, None], q.upper[:, None]
        inter = np.empty(len(self.ids))
        for cols, lowers, uppers in self._blocks:
            boxes.intersection(lo, hi, lowers, uppers, cfg, axis=0, out=inter[cols])
        return _directed(inter, vol_q, *stored)

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

    def _rows(self, q: BoxEmbedding, cfg: SmoothingConfig, vol_q, k):
        """Ascending rows whose exact scores hold the top k, ties across the
        k-th place included, or None for the whole gallery.

        A smoothed query takes _filtered's rows. A hard query takes the
        candidates that meet it in every dimension and the first k rows;
        the whole gallery when every row is a candidate. Every other row
        lies strictly apart from the query in some dimension and scores ±0,
        which the scan ranks after every positive score by ascending row.
        The rows scored ascend too, and the first k of them hold a
        zero-score row for each place the positive scores leave, so the
        stable sort takes the scan's rows, each with its own zero (-0.0 for
        a box touching the query at -0.0). No hard score is NaN, which
        would sort after the zeros: the query's volume is checked finite
        and positive, so each width of its intersection with a box lies in
        [0, the query's width].
        """
        if not cfg.hard:
            return self._filtered(q, cfg, vol_q, k)
        cand = self._candidates(q)
        if len(cand) == len(self.ids):
            return None
        size = min(k, len(self.ids))
        cand = cand[_meets(self.lowers.take(cand, 0), self.uppers.take(cand, 0),
                           q.lower, q.upper)]
        return np.concatenate([np.arange(size), cand[cand.searchsorted(size):]])

    def query_topk(self, q: BoxEmbedding, k: int,
                   cfg: SmoothingConfig = HARD) -> list[QueryResult]:
        """Top-k gallery entries by mean of the two directed overlaps.

        Ties are broken by ascending id; identical to an exhaustive scan.
        """
        vol_q = self._check_query(q, k, cfg)
        rows = self._rows(q, cfg, vol_q, k)
        if rows is None:
            enclosure, concentration = self._scan_scores(q, cfg, vol_q)
        else:
            enclosure, concentration = self._exact_scores(q, cfg, vol_q, rows)
        score = 0.5 * (enclosure + concentration)
        order = _top(score, k)
        return self._results((order if rows is None else rows[order]).tolist(),
                             enclosure[order], concentration[order], score[order])

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
