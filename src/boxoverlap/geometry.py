"""Ground-truth visible-surface overlap between posed depth images.

Pixels are backprojected into world-space oriented points (surfels); the
directed overlap from view x to view y counts x's points that have a
y-point within a distance threshold, optionally weighted by the cosine
between the matched surface normals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


_EYE = np.eye(3)

# No point of a view may lie farther than this from the origin, so the squares
# that normal fits and point distances take of its coordinates stay finite.
_MAX_EXTENT = 1e150


@dataclass(frozen=True)
class Pose:
    """Camera-to-world rotation and translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if rot.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if not np.isfinite(t).all():
            raise ValueError("translation must be finite")
        # np.allclose and np.isclose's test (atol 1e-9, rtol 1e-5), one
        # elementwise pass each; a NaN or infinite entry fails it.
        if not (np.abs(rot.T @ rot - _EYE) <= 1e-9 + 1e-5 * _EYE).all():
            raise ValueError("rotation is not orthonormal")
        if not abs(np.linalg.det(rot) - 1.0) <= 1e-9 + 1e-5:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)


@dataclass
class CameraView:
    """One posed depth image; depth is NaN wherever valid_mask is False."""

    id: str
    intrinsics: CameraIntrinsics
    pose: Pose
    depth: np.ndarray
    valid_mask: np.ndarray = field(init=False)
    # The valid pixels whose 3x3 window, their own included, holds the 4
    # valid points a normal fit needs: the pixels that become surfels.
    surfel_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=np.float64)
        h, w = self.intrinsics.height, self.intrinsics.width
        if depth.shape != (h, w):
            raise ValueError("depth dims must match intrinsics")
        self.valid_mask = np.isfinite(depth) & (depth > 0)
        self.depth = np.where(self.valid_mask, depth, np.nan)
        intr, far = self.intrinsics, float(np.max(depth, where=self.valid_mask, initial=0.0))
        if far:  # the farthest any point can lie from the camera center
            far *= math.hypot(max(intr.cx, w - 1 - intr.cx) / intr.fx,
                              max(intr.cy, h - 1 - intr.cy) / intr.fy, 1.0)
        if not far + math.hypot(*self.pose.translation) <= _MAX_EXTENT:
            raise ValueError(f"points lie beyond {_MAX_EXTENT:g} of the origin")
        padded = np.zeros((h + 2, w + 2))
        padded[1:-1, 1:-1] = self.valid_mask
        self.surfel_mask = self.valid_mask & (_window_sum(padded, h, w) >= 4)

    @property
    def n_valid(self) -> int:
        return int(self.valid_mask.sum())


@dataclass
class SurfelCloud:
    """World-space points with unit normals."""

    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        if len(self.points) != len(self.normals):
            raise ValueError("points/normals must have equal length")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class OverlapRecord:
    id_x: str
    id_y: str
    nso_xy: float
    nso_yx: float

    def __post_init__(self):
        for v in (self.nso_xy, self.nso_yx):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"NSO value out of [0, 1]: {v}")


@dataclass(frozen=True)
class NSOConfig:
    radius: float = 0.1
    n_sub: int = 5000
    seed: int = 0
    weighted: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.n_sub < 1:
            raise ValueError("n_sub must be >= 1")


def _camera_points(view: CameraView, rows, cols) -> np.ndarray:
    """Camera-frame points of the pixels at (rows, cols), index arrays that
    broadcast (invalid pixels -> NaN)."""
    intr = view.intrinsics
    z = view.depth[rows, cols]
    x = (cols - intr.cx) / intr.fx * z
    y = (rows - intr.cy) / intr.fy * z
    return np.stack([x, y, z], axis=-1)


def _window_sum(padded: np.ndarray, h: int, w: int) -> np.ndarray:
    """Sum over each 3x3 window of the first two axes of `padded`, for the
    (h, w) pixels inside its one-pixel border."""
    out = np.zeros((h, w) + padded.shape[2:])
    for r in (2, 1, 0):
        for c in (2, 1, 0):
            out += padded[r:r + h, c:c + w]
    return out


# A point's first moments x, y, z are followed by its distinct second
# moments xx xy xz yy yz zz (the coordinate pairs _FIRST, _SECOND), which
# _MIRROR places in the 3x3 outer product.
_FIRST, _SECOND = np.triu_indices(3)
_MIRROR = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _fit_normals(view: CameraView, fit: np.ndarray) -> np.ndarray:
    """World-frame unit normals of the pixels `fit` selects, in row-major order.

    Each is the smallest eigenvector of the covariance of the valid points
    in the pixel's 3x3 window, a total-least-squares plane fit, oriented
    toward the camera center. Every pixel of `fit` must be in the view's
    `surfel_mask`. Points and windows are computed only over the bounding
    box of `fit`, and each sum adds the same terms in the same order
    wherever the box lies, so a pixel's normal does not depend on which
    other pixels `fit` selects.
    """
    rows, cols = np.flatnonzero(fit.any(axis=1)), np.flatnonzero(fit.any(axis=0))
    top, bottom, left, right = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    # The box's windows read one pixel around it, zero outside the image.
    h, w = fit.shape
    ring = np.s_[max(top - 1, 0):min(bottom + 1, h), max(left - 1, 0):min(right + 1, w)]
    valid = view.valid_mask[ring]
    pts = _camera_points(view, *np.ogrid[ring])
    p = np.where(valid[..., None], pts, 0.0)
    # Row and column 0 of the moments are the image's top - 1 and left - 1.
    # Channel 9 counts the window's valid points: a sum of 0/1, so exact.
    moments = np.zeros((bottom - top + 2, right - left + 2, 10))
    r0, c0 = int(top == 0), int(left == 0)
    inner = moments[r0:r0 + p.shape[0], c0:c0 + p.shape[1]]
    inner[..., :3] = p
    np.multiply(p[..., _FIRST], p[..., _SECOND], out=inner[..., 3:9])
    inner[..., 9] = valid
    box = fit[top:bottom, left:right]
    sums = _window_sum(moments, *box.shape)[box]
    n_points = sums[:, 9]
    mean = sums[:, :3] / n_points[:, None]
    cov = (sums[:, 3:9][:, _MIRROR] / n_points[:, None, None]
           - mean[:, :, None] * mean[:, None, :])
    normal = np.linalg.eigh(cov)[1][:, :, 0]
    # Orient toward the camera center (origin of the camera frame).
    normal[np.einsum("ij,ij->i", normal, pts[fit[ring]]) > 0] *= -1.0
    return normal @ view.pose.rotation.T


def _surfel_points(view: CameraView) -> np.ndarray:
    """World points of the view's `surfel_mask` pixels, in row-major order;
    raises when it has none."""
    if not view.surfel_mask.any():
        raise ValueError(f"no valid depth with 3 valid neighbours in its 3x3 window "
                         f"in view {view.id!r}")
    return (_camera_points(view, *np.nonzero(view.surfel_mask)) @ view.pose.rotation.T
            + view.pose.translation)


def _in_reach(points, near, radius: float) -> np.ndarray:
    """Per point, whether it is `_near` one of the view bounds in `near`
    within radius: only such a point of a view can match a point of a view
    in `near`, or be matched by one."""
    todo = np.arange(len(points))
    for bounds in near:
        rest = points[todo]
        todo = todo[~_near(rest, rest, bounds, radius)]
        if todo.size == 0:
            break
    reach = np.ones(len(points), dtype=bool)
    reach[todo] = False
    return reach


def backproject(view: CameraView) -> SurfelCloud:
    """One world-space surfel, normal fitted, per pixel of the view's `surfel_mask`."""
    return SurfelCloud(_surfel_points(view), _fit_normals(view, view.surfel_mask))


def _subsample_rows(size: int, n: int, seed: int) -> np.ndarray:
    """Sorted rows of a uniform subsample of n of `size` rows, without replacement."""
    return np.sort(np.random.default_rng(seed).choice(size, size=n, replace=False))


def subsample(cloud: SurfelCloud, n: int, seed: int) -> SurfelCloud:
    """Uniform subsample without replacement, preserving point order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= len(cloud):
        return cloud
    idx = _subsample_rows(len(cloud), n, seed)
    return SurfelCloud(cloud.points[idx], cloud.normals[idx])


# The brute-force match compares source rows with the whole destination
# cloud in blocks of about this many distances (8 MiB), so its memory does
# not grow with the product of the two cloud sizes.
_BRUTE_BLOCK = 2 ** 20


def _match_brute(src_points, dst_points, radius):
    """Per source point, whether its nearest destination point, the lowest
    row on a tie, lies within radius, and that row (0 where none does)."""
    from scipy.spatial.distance import cdist
    n = len(src_points)
    within = np.empty(n, dtype=bool)
    idx = np.zeros(n, dtype=np.intp)
    step = max(1, _BRUTE_BLOCK // len(dst_points))
    for start in range(0, n, step):
        dist = cdist(src_points[start:start + step], dst_points)
        nn = np.argmin(dist, axis=1)
        near = dist[np.arange(len(nn)), nn] <= radius
        within[start:start + step] = near
        idx[start:start + step] = np.where(near, nn, 0)
        del dist  # else it stays alive while the next block is made
    return within, idx


def _weighted_sum(src, dst, rows, nn, weighted: bool, reach=None):
    """Sum of the match weights from src into dst, where src row rows[k]
    matched dst row nn[k]. Given `reach`, a mask over a set of points whose
    points in reach src holds, each weight is first placed at its point's
    position in a zero array over the set, so the sum adds the same terms in
    the same order as over the whole set."""
    w = np.zeros(len(src.points))
    if weighted:
        # Normalizing by sqrt(|n_i|^2 |n_j|^2) makes the cosine of a normal
        # with itself exactly 1.0, so self-overlap stays exact.
        n_i = np.take(src.normals, rows, axis=0)
        n_j = np.take(dst.normals, nn, axis=0)
        dot = np.einsum("ij,ij->i", n_i, n_j)
        nrm_i = np.einsum("ij,ij->i", n_i, n_i)
        nrm_j = np.einsum("ij,ij->i", n_j, n_j)
        w[rows] = np.clip(dot / np.sqrt(nrm_i * nrm_j), 0.0, 1.0)
    else:
        w[rows] = 1.0
    if reach is not None:
        w, in_reach = np.zeros(len(reach)), w
        w[reach] = in_reach
    return float(np.sum(w))


def overlap_count_brute(
    src: SurfelCloud, dst: SurfelCloud, radius: float, weighted: bool = True
) -> float:
    """Sum of per-surfel match weights from src into dst, comparing every point pair."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if len(src) == 0 or len(dst) == 0:
        return 0.0
    within, idx = _match_brute(src.points, dst.points, radius)
    rows = np.flatnonzero(within)
    return _weighted_sum(src, dst, rows, idx[rows], weighted)


class OracleMismatchError(Exception):
    """The k-d tree overlap of a pair differs from the brute-force oracle."""


# A pair is culled only when its bounds are apart by more than the radius
# with this relative margin, far above the round-off of any distance the
# search computes, so a culled pair can never hold a match.
_CULL_SLACK = 1e-6

# A radius join of a pair's two trees lists every point pair within the
# radius, so its work grows with the neighbours each point has there; the
# per-point search costs one nearest-neighbour query per source point. The
# join serves a pair only when neither view is subsampled and the sparser
# view has at most this many own points per point within the radius, which
# bounds its entries by about n_sub times this. On the default 96-view
# scene it halves the pair loop at the default radius and would be slower
# from a radius of about 0.3, where the sparser views pass this bound.
_JOIN_MAX_NEIGHBOURS = 16.0
_NEIGHBOUR_SAMPLE = 64


@dataclass(frozen=True)
class _Reached:
    """The points in reach of a set of surfels, in set order: only they can
    match, and the set's other points weigh 0 in a directed sum."""

    points: np.ndarray
    normals: np.ndarray | None  # None when unweighted
    reach: np.ndarray | None  # mask of the set's points in reach; None when all are

    def nso(self, dst: _Reached, rows, nn, weighted: bool) -> float:
        """Directed NSO of the set into dst, where its point rows[k] matched
        dst point nn[k]."""
        size = len(self.points if self.reach is None else self.reach)
        return _weighted_sum(self, dst, rows, nn, weighted, self.reach) / size


@dataclass(frozen=True)
class _IndexedCloud:
    """One view's surfels in reach of its live partners, prepared once for
    every pair it takes part in."""

    cloud: _Reached  # of its kept surfels, the destination of every match
    sub: _Reached  # of its source subsample; `cloud` itself when not subsampled
    tree: cKDTree  # over cloud.points
    neighbours: float  # mean own points within the radius, over a strided sample


def _reached_cloud(points, near, normals, cfg: NSOConfig) -> _Reached:
    """A view's surfel `points` in reach of one of the view bounds in `near`,
    sharing their array when all are. When cfg.weighted, their normals are
    sliced from `normals`, the normals of `points`, or fitted from it when it
    is the view whose `surfel_mask` pixels `points` holds. A point out of
    reach can match nothing, so nothing is kept for it."""
    reach = _in_reach(points, near, cfg.radius)
    whole = reach.all()
    if not cfg.weighted:
        normals = None
    elif isinstance(normals, CameraView):
        fit = np.zeros_like(normals.surfel_mask)
        fit[normals.surfel_mask] = reach
        normals = _fit_normals(normals, fit) if reach.any() else np.empty((0, 3))
    elif not whole:
        normals = normals[reach]
    return _Reached(points, normals, None) if whole else _Reached(points[reach], normals, reach)


def _index_cloud(cloud: _Reached, cfg: NSOConfig) -> _IndexedCloud:
    """Prepare a view's points in reach for its pairs, sharing their arrays."""
    from scipy.spatial import cKDTree
    sub = cloud
    size = len(cloud.points if cloud.reach is None else cloud.reach)
    if size > cfg.n_sub:
        # The subsample of all kept surfels, reduced to those in reach.
        picked = _subsample_rows(size, cfg.n_sub, cfg.seed)
        sub_reach = None
        if cloud.reach is not None:
            sub_reach = cloud.reach[picked]
            picked = np.searchsorted(np.flatnonzero(cloud.reach), picked[sub_reach])
        sub = _Reached(cloud.points[picked],
                       None if cloud.normals is None else cloud.normals[picked], sub_reach)
    tree = cKDTree(cloud.points)
    sample = cloud.points[::max(1, len(cloud.points) // _NEIGHBOUR_SAMPLE)]
    counts = tree.query_ball_point(sample, cfg.radius, return_length=True)
    return _IndexedCloud(cloud, sub, tree, float(np.mean(counts)) if len(counts) else 0.0)


def _bounds(points):
    """(mins, maxes) of the points, as a `cKDTree` over them computes them."""
    # Reduced one coordinate column at a time: numpy's min(axis=0) over rows
    # of 3 takes several times as long.
    axes = points.T
    return np.array([a.min() for a in axes]), np.array([a.max() for a in axes])


def _near(lo, hi, bounds, radius: float):
    """Whether the box [lo, hi] is within radius of the box `bounds` on every
    axis, a mask for rows of points (lo is hi) or of boxes stacked in
    `bounds`. Nothing that is not near a view's bounds lies within the
    radius of one of its points."""
    mins, maxes = bounds
    near = np.maximum(lo - maxes, mins - hi) <= radius * (1.0 + _CULL_SLACK)
    # Joined axis by axis: all(axis=-1) over rows of 3 takes several times as long.
    return near[..., 0] & near[..., 1] & near[..., 2]


def _cull(pairs, bounds, radius: float) -> np.ndarray:
    """Per pair, whether its two views' `bounds` are `_near` within radius.

    `_near` is called once per first view of a pair, with that view's box as
    [lo, hi] against the stacked boxes of all its partners.
    """
    index = {key: k for k, key in enumerate(bounds)}
    mins = np.array([lo for lo, _ in bounds.values()])
    maxes = np.array([hi for _, hi in bounds.values()])
    second = np.array([index[y] for _, y in pairs], dtype=np.intp)
    by_first = {}
    for row, (x, _) in enumerate(pairs):
        by_first.setdefault(x, []).append(row)
    live = np.zeros(len(pairs), dtype=bool)
    for x, rows in by_first.items():
        k, partners = index[x], second[rows]
        live[rows] = _near(mins[k], maxes[k], (mins[partners], maxes[partners]), radius)
    return live


def _use_join(a: _IndexedCloud, b: _IndexedCloud) -> bool:
    return (a.sub is a.cloud and b.sub is b.cloud
            and min(a.neighbours, b.neighbours) <= _JOIN_MAX_NEIGHBOURS)


def _query_nso(src: _IndexedCloud, dst: _IndexedCloud, cfg: NSOConfig,
               workers: int) -> float:
    """Directed NSO from src into dst by one nearest-neighbour query per
    subsampled source point."""
    # The search stops at the radius; nextafter keeps a neighbour at exactly
    # `radius` in reach, as the brute-force `<=` test counts it.
    dist, nn = dst.tree.query(src.sub.points, k=1,
                              distance_upper_bound=np.nextafter(cfg.radius, np.inf),
                              workers=workers)
    rows = np.flatnonzero(dist <= cfg.radius)
    return src.sub.nso(dst.cloud, rows, nn[rows], cfg.weighted)


def _join_nso(src: _IndexedCloud, dst: _IndexedCloud, i, j, dist, weighted: bool) -> float:
    """Directed NSO from src into dst given every (src row i, dst row j) pair
    of points in reach within the radius and its distance; src is not
    subsampled.

    Each source point matches its nearest destination point, the lowest dst
    row on a tie, as the brute-force argmin picks it.
    """
    n, unmatched = len(src.cloud.points), len(dst.cloud.points)
    best = np.full(n, np.inf)
    np.minimum.at(best, i, dist)
    nn = np.full(n, unmatched)
    np.minimum.at(nn, i, np.where(dist == best[i], j, unmatched))
    rows = np.flatnonzero(nn < unmatched)
    return src.cloud.nso(dst.cloud, rows, nn[rows], weighted)


def _pair_nso(a: _IndexedCloud, b: _IndexedCloud, cfg: NSOConfig,
              workers: int) -> tuple[float, float]:
    """Directed NSO (a into b, b into a) of a pair that survived the cull."""
    if not _use_join(a, b):
        return _query_nso(a, b, cfg, workers), _query_nso(b, a, cfg, workers)
    # One traversal of both trees finds every point pair within the radius,
    # the matches of both directions. The join keeps distances up to its
    # bound; nextafter keeps a neighbour at exactly `radius` in reach, as the
    # brute-force `<=` test counts it, and the filter drops what lies beyond.
    join = a.tree.sparse_distance_matrix(b.tree, np.nextafter(cfg.radius, np.inf),
                                         output_type="ndarray")
    within = join["v"] <= cfg.radius
    if within.all():
        i, j, dist = join["i"], join["j"], join["v"]
    else:
        i, j, dist = join["i"][within], join["j"][within], join["v"][within]
    del join, within
    return _join_nso(a, b, i, j, dist, cfg.weighted), _join_nso(b, a, j, i, dist, cfg.weighted)


def _nso_pairs(points, normals, pairs, cfg: NSOConfig, workers: int) -> list:
    """Directed NSO (x into y, y into x) of each (x, y) pair of keys, in
    order: the engine of every NSO entry point but the brute-force route.

    `points` maps each key the pairs name to its surfel points, and is
    emptied; `normals` maps it to their normals or to their view, as
    `_reached_cloud` takes them. A pair whose bounds, padded by the radius,
    are disjoint is (0.0, 0.0) without a search. Each key in a live pair is
    prepared over its points in reach of a live partner only, for no other
    point can match, with one k-d tree shared by its pairs. A live pair is
    one radius join of its two trees when neither view is subsampled and the
    sparser one has few neighbours per point within the radius; else one
    nearest-neighbour query per subsampled source point in reach, split over
    `workers` query workers. The result does not depend on the route.
    """
    bounds = {key: _bounds(p) for key, p in points.items()}
    live = _cull(pairs, bounds, cfg.radius)
    partners = {key: [] for key in points}
    for (x, y), searched in zip(pairs, live):
        if searched:
            partners[x].append(bounds[y])
            partners[y].append(bounds[x])
    # Each full array is dropped once its points in reach are taken, and every
    # normal is fitted before the first tree is built.
    reached = {key: _reached_cloud(points.pop(key), near, normals[key], cfg)
               for key, near in partners.items() if near}
    points.clear()
    indexed = {key: _index_cloud(cloud, cfg) for key, cloud in reached.items()}
    return [_pair_nso(indexed[x], indexed[y], cfg, workers) if searched else (0.0, 0.0)
            for (x, y), searched in zip(pairs, live)]


def nso_from_clouds(cloud_x: SurfelCloud, cloud_y: SurfelCloud, id_x: str, id_y: str,
                    cfg: NSOConfig, brute_force: bool = False) -> OverlapRecord:
    """Directed NSO in both directions from precomputed surfel clouds.

    The source cloud is subsampled to cfg.n_sub points; matches are searched
    in the full destination cloud. The denominator is the subsampled source
    size, so a view always fully overlaps itself. The brute-force route
    compares every point pair and never culls.
    """
    if not brute_force:
        [nso] = _nso_pairs({0: cloud_x.points, 1: cloud_y.points},
                           {0: cloud_x.normals, 1: cloud_y.normals}, [(0, 1)], cfg, 1)
        return OverlapRecord(id_x, id_y, *nso)
    sub_x = subsample(cloud_x, cfg.n_sub, cfg.seed)
    sub_y = subsample(cloud_y, cfg.n_sub, cfg.seed)
    nso_xy = overlap_count_brute(sub_x, cloud_y, cfg.radius, cfg.weighted) / len(sub_x)
    nso_yx = overlap_count_brute(sub_y, cloud_x, cfg.radius, cfg.weighted) / len(sub_y)
    return OverlapRecord(id_x, id_y, nso_xy, nso_yx)


def pairs_nso(views, pairs, cfg: NSOConfig, oracle: bool = False,
              threads: int = 1) -> list[OverlapRecord]:
    """Directed NSO for the given (id_x, id_y) pairs, in their order.

    Each view the pairs name is backprojected once, without normals, and
    run through `_nso_pairs` with `threads` query workers: when cfg.weighted,
    normals are fitted only for its points in reach of a live partner, over
    the bounding box of their pixels. With oracle=True every pair, culled
    ones included, is then recomputed brute-force from full `backproject`
    clouds and must match exactly, else OracleMismatchError; it keeps a
    first view's cloud while its pairs run and backprojects each second view
    afresh, so it holds at most two at a time. Two distinct views that
    share an id are a ValueError.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    by_id = {}
    for view in views:
        if by_id.setdefault(view.id, view) is not view:
            raise ValueError(f"two views share the id {view.id!r}")
    named = dict.fromkeys(img_id for pair in pairs for img_id in pair)
    nso = _nso_pairs({img_id: _surfel_points(by_id[img_id]) for img_id in named}, by_id,
                     pairs, cfg, threads)
    records = [OverlapRecord(id_x, id_y, *values) for (id_x, id_y), values in zip(pairs, nso)]
    first = None, None  # the oracle's first view: (id, full cloud)
    for rec in records if oracle else ():
        if first[0] != rec.id_x:
            first = rec.id_x, backproject(by_id[rec.id_x])
        ref = nso_from_clouds(first[1], backproject(by_id[rec.id_y]),
                              rec.id_x, rec.id_y, cfg, brute_force=True)
        if ref != rec:
            raise OracleMismatchError(
                f"accelerated overlap diverges from brute force on "
                f"pair ({rec.id_x}, {rec.id_y})"
            )
    return records


def all_pairs_nso(views, cfg: NSOConfig, oracle: bool = False,
                  threads: int = 1) -> list[OverlapRecord]:
    """Directed NSO for every unordered view pair, in deterministic order."""
    pairs = [(x.id, y.id) for x, y in itertools.combinations(views, 2)]
    return pairs_nso(views, pairs, cfg, oracle=oracle, threads=threads)


def compute_nso(view_x: CameraView, view_y: CameraView,
                cfg: NSOConfig = NSOConfig()) -> OverlapRecord:
    """Ground-truth normalized surface overlap between two posed depth images,
    the record of `nso_from_clouds` on their `backproject` clouds; normals
    are fitted only for the points in reach of the other view."""
    [nso] = _nso_pairs({0: _surfel_points(view_x), 1: _surfel_points(view_y)},
                       {0: view_x, 1: view_y}, [(0, 1)], cfg, 1)
    return OverlapRecord(view_x.id, view_y.id, *nso)
