"""Ground-truth visible-surface overlap between posed depth images.

Pixels are backprojected into world-space oriented points (surfels); the
directed overlap from view x to view y counts x's points that have a
y-point within a distance threshold, optionally weighted by the cosine
between the matched surface normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist


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


def _kept_surfels(view: CameraView) -> SurfelCloud:
    """The cloud of the view's `surfel_mask` pixels' world points in
    row-major order, every normal NaN; raises when it has none."""
    if not view.surfel_mask.any():
        raise ValueError(f"no valid depth with 3 valid neighbours in its 3x3 window "
                         f"in view {view.id!r}")
    points = (_camera_points(view, *np.nonzero(view.surfel_mask)) @ view.pose.rotation.T
              + view.pose.translation)
    return SurfelCloud(points, np.full(points.shape, np.nan))


def _fit_reached(view: CameraView, cloud: SurfelCloud, near, radius: float) -> None:
    """Fit in place the normals of the cloud `_kept_surfels(view)` gives, for
    its points `_near` one of the view bounds in `near` within radius: no
    pair reads the normal of a point near no live partner of its view, and
    those stay NaN. A fitted normal has the bits `backproject` gives it."""
    todo = np.arange(len(cloud))
    for bounds in near:
        rest = cloud.points[todo]
        todo = todo[~_near(rest, rest, bounds, radius)]
        if todo.size == 0:
            break
    reached = np.ones(len(cloud), dtype=bool)
    reached[todo] = False
    if reached.any():
        fit = np.zeros_like(view.surfel_mask)
        fit[view.surfel_mask] = reached
        cloud.normals[reached] = _fit_normals(view, fit)


def backproject(view: CameraView) -> SurfelCloud:
    """One world-space surfel, normal fitted, per pixel of the view's `surfel_mask`."""
    return SurfelCloud(_kept_surfels(view).points, _fit_normals(view, view.surfel_mask))


def subsample(cloud: SurfelCloud, n: int, seed: int) -> SurfelCloud:
    """Uniform subsample without replacement, preserving point order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= len(cloud):
        return cloud
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(cloud), size=n, replace=False))
    return SurfelCloud(cloud.points[idx], cloud.normals[idx])


# The brute-force match compares source rows with the whole destination
# cloud in blocks of about this many distances (8 MiB), so its memory does
# not grow with the product of the two cloud sizes.
_BRUTE_BLOCK = 2 ** 20


def _match_brute(src_points, dst_points, radius):
    """Per source point, whether its nearest destination point, the lowest
    row on a tie, lies within radius, and that row (0 where none does)."""
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


def _weighted_sum(src: SurfelCloud, dst: SurfelCloud, rows, nn, weighted: bool):
    """Sum over src of the match weights, where src row rows[k] matched dst row nn[k]."""
    w = np.zeros(len(src))
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
class _IndexedCloud:
    """One view's surfels, prepared once for every pair it takes part in."""

    cloud: SurfelCloud
    sub: SurfelCloud  # source subsample
    tree: cKDTree  # over the full cloud, the destination of every match
    neighbours: float  # mean own points within the radius, over a strided sample


def _index_cloud(cloud: SurfelCloud, cfg: NSOConfig) -> _IndexedCloud:
    tree = cKDTree(cloud.points)
    sample = cloud.points[::max(1, len(cloud) // _NEIGHBOUR_SAMPLE)]
    return _IndexedCloud(
        cloud=cloud,
        sub=subsample(cloud, cfg.n_sub, cfg.seed),
        tree=tree,
        neighbours=float(np.mean(tree.query_ball_point(sample, cfg.radius,
                                                       return_length=True))),
    )


def _bounds(cloud: SurfelCloud):
    """(mins, maxes) of the cloud's points, as its `cKDTree` computes them."""
    # Reduced one coordinate column at a time: numpy's min(axis=0) over rows
    # of 3 takes several times as long.
    axes = cloud.points.T
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
    index = {img_id: k for k, img_id in enumerate(bounds)}
    mins = np.array([lo for lo, _ in bounds.values()])
    maxes = np.array([hi for _, hi in bounds.values()])
    second = np.array([index[id_y] for _, id_y in pairs], dtype=np.intp)
    by_first = {}
    for row, (id_x, _) in enumerate(pairs):
        by_first.setdefault(id_x, []).append(row)
    live = np.zeros(len(pairs), dtype=bool)
    for id_x, rows in by_first.items():
        k, partners = index[id_x], second[rows]
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
    return _weighted_sum(src.sub, dst.cloud, rows, nn[rows], cfg.weighted) / len(src.sub)


def _join_nso(src: _IndexedCloud, dst: _IndexedCloud, i, j, dist, weighted: bool) -> float:
    """Directed NSO from src into dst given every (src row i, dst row j) pair
    of cloud points within the radius and its distance; src is not subsampled.

    Each source point matches its nearest destination point, the lowest dst
    row on a tie, as the brute-force argmin picks it.
    """
    n, unmatched = len(src.cloud), len(dst.cloud)
    best = np.full(n, np.inf)
    np.minimum.at(best, i, dist)
    nn = np.full(n, unmatched)
    np.minimum.at(nn, i, np.where(dist == best[i], j, unmatched))
    rows = np.flatnonzero(nn < unmatched)
    return _weighted_sum(src.cloud, dst.cloud, rows, nn[rows], weighted) / n


def _pair_nso(a: _IndexedCloud, b: _IndexedCloud, id_x: str, id_y: str,
              cfg: NSOConfig, workers: int = 1) -> OverlapRecord:
    """Directed NSO of a pair that survived the cull."""
    if not _use_join(a, b):
        return OverlapRecord(id_x, id_y, _query_nso(a, b, cfg, workers),
                             _query_nso(b, a, cfg, workers))
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
    return OverlapRecord(id_x, id_y, _join_nso(a, b, i, j, dist, cfg.weighted),
                         _join_nso(b, a, j, i, dist, cfg.weighted))


def nso_from_clouds(
    cloud_x: SurfelCloud,
    cloud_y: SurfelCloud,
    id_x: str,
    id_y: str,
    cfg: NSOConfig,
    brute_force: bool = False,
) -> OverlapRecord:
    """Directed NSO in both directions from precomputed surfel clouds.

    The source cloud is subsampled to cfg.n_sub points; matches are searched
    in the full destination cloud. The denominator is the subsampled source
    size, so a view always fully overlaps itself. The brute-force route
    compares every point pair and never culls.
    """
    if not brute_force:
        if not _near(*_bounds(cloud_x), _bounds(cloud_y), cfg.radius):
            return OverlapRecord(id_x, id_y, 0.0, 0.0)
        return _pair_nso(_index_cloud(cloud_x, cfg), _index_cloud(cloud_y, cfg),
                         id_x, id_y, cfg)
    sub_x = subsample(cloud_x, cfg.n_sub, cfg.seed)
    sub_y = subsample(cloud_y, cfg.n_sub, cfg.seed)
    nso_xy = overlap_count_brute(sub_x, cloud_y, cfg.radius, cfg.weighted) / len(sub_x)
    nso_yx = overlap_count_brute(sub_y, cloud_x, cfg.radius, cfg.weighted) / len(sub_y)
    return OverlapRecord(id_x, id_y, nso_xy, nso_yx)


def pairs_nso(views, pairs, cfg: NSOConfig, oracle: bool = False,
              threads: int = 1) -> list[OverlapRecord]:
    """Directed NSO for the given (id_x, id_y) pairs, in their order.

    Each view the pairs name is backprojected once, without normals, and
    bounded. A pair whose bounds, padded by the radius, are disjoint is
    recorded as (0.0, 0.0) without a search. When cfg.weighted, each view
    in a live pair (one not culled) gets normals fitted only for its points
    inside the padded bounds of one of its live partners, over the bounding
    box of those pixels; no pair reads any other normal, and those hold
    NaN. Then each view in
    a live pair gets one k-d tree, shared by its pairs and freed on return.
    A live pair is one radius join of its two trees, which serves both
    directions, when neither view is subsampled and the sparser one has few
    neighbours per point within the radius; else one nearest-neighbour
    query per subsampled source point, split by point over `threads` query
    workers. The result does not depend on the route or on `threads`. With
    oracle=True every pair, culled ones included, is recomputed brute-force
    from full `backproject` clouds and must match exactly, else
    OracleMismatchError; it keeps a first view's cloud while its pairs run and
    backprojects each second view afresh, so it holds at most two at a time.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    by_id = {view.id: view for view in views}
    named = dict.fromkeys(img_id for pair in pairs for img_id in pair)
    clouds = {img_id: _kept_surfels(by_id[img_id]) for img_id in named}
    bounds = {img_id: _bounds(cloud) for img_id, cloud in clouds.items()}
    live = _cull(pairs, bounds, cfg.radius)
    partners = {img_id: [] for img_id in clouds}
    for (id_x, id_y), searched in zip(pairs, live):
        if searched:
            partners[id_x].append(bounds[id_y])
            partners[id_y].append(bounds[id_x])
    if cfg.weighted:
        for img_id, partner_bounds in partners.items():
            if partner_bounds:
                _fit_reached(by_id[img_id], clouds[img_id], partner_bounds, cfg.radius)
    indexed = {img_id: _index_cloud(clouds[img_id], cfg)
               for img_id, partner_bounds in partners.items() if partner_bounds}
    records, first = [], (None, None)  # the oracle's first view: (id, full cloud)
    for (id_x, id_y), searched in zip(pairs, live):
        if searched:
            rec = _pair_nso(indexed[id_x], indexed[id_y], id_x, id_y, cfg, threads)
        else:
            rec = OverlapRecord(id_x, id_y, 0.0, 0.0)
        if oracle:
            if first[0] != id_x:
                first = id_x, backproject(by_id[id_x])
            ref = nso_from_clouds(first[1], backproject(by_id[id_y]),
                                  id_x, id_y, cfg, brute_force=True)
            if (rec.nso_xy, rec.nso_yx) != (ref.nso_xy, ref.nso_yx):
                raise OracleMismatchError(
                    f"accelerated overlap diverges from brute force on "
                    f"pair ({id_x}, {id_y})"
                )
        records.append(rec)
    return records


def all_pairs_nso(views, cfg: NSOConfig, oracle: bool = False,
                  threads: int = 1) -> list[OverlapRecord]:
    """Directed NSO for every unordered view pair, in deterministic order."""
    pairs = [
        (views[i].id, views[j].id)
        for i in range(len(views))
        for j in range(i + 1, len(views))
    ]
    return pairs_nso(views, pairs, cfg, oracle=oracle, threads=threads)


def compute_nso(
    view_x: CameraView, view_y: CameraView, cfg: NSOConfig = NSOConfig()
) -> OverlapRecord:
    """Ground-truth normalized surface overlap between two posed depth images."""
    cloud_x = backproject(view_x)
    cloud_y = backproject(view_y)
    return nso_from_clouds(cloud_x, cloud_y, view_x.id, view_y.id, cfg)
