import hashlib
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial.distance import cdist

from boxoverlap import dataset_io, geometry
from boxoverlap.geometry import (
    CameraIntrinsics,
    CameraView,
    NSOConfig,
    OverlapRecord,
    Pose,
    SurfelCloud,
    all_pairs_nso,
    backproject,
    compute_nso,
    nso_from_clouds,
    overlap_count_brute,
    subsample,
)
from boxoverlap.synth import (
    DEFAULT_HEIGHT,
    CameraScript,
    HeightfieldSurface,
    Placement,
    default_script,
    default_surface,
    grid_script,
    render_depth,
    render_script,
)
from synth_fixtures import SphereSurface

IDENTITY = Pose(np.eye(3), np.zeros(3))


def flat_view(view_id="flat", depth_value=1.0, size=5, fx=1.0, fy=1.0,
              cx=0.0, cy=0.0, pose=IDENTITY):
    intr = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=size, height=size)
    depth = np.full((size, size), depth_value)
    return CameraView(view_id, intr, pose, depth)


def random_cloud(rng, n, spread=1.0):
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return SurfelCloud(
        points=rng.uniform(-spread, spread, size=(n, 3)),
        normals=normals,
    )


# -- types ---------------------------------------------------------------------


def test_pose_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 2.0, np.zeros(3))


def test_pose_rejects_reflection():
    with pytest.raises(ValueError):
        Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def old_pose_check(rot):
    """Whether a rotation passes the reference check by np.allclose and
    np.isclose, with their default rtol of 1e-5."""
    return bool(np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
                and np.isclose(np.linalg.det(rot), 1.0, atol=1e-9))


def pose_accepts(rot):
    try:
        Pose(rot, np.zeros(3))
    except ValueError:
        return False
    return True


def turned(angles):
    """A rotation by each of the angles about the x, y and z axes in turn."""
    rot = np.eye(3)
    for axis, angle in enumerate(angles):
        i, j = [k for k in range(3) if k != axis]
        turn = np.eye(3)
        turn[i, i], turn[i, j], turn[j, i], turn[j, j] = (
            np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle))
        rot = rot @ turn
    return rot


def test_pose_check_accepts_what_allclose_accepted():
    # Each perturbation of a rotation is swept across the edge of the
    # tolerance it meets first, 1e-9 + 1e-5 on the determinant and on the
    # diagonal of R^T R, 1e-9 off the diagonal: a uniform scale s
    # (|s^3 - 1|), an opposed stretch of two axes (determinant 1) and a
    # shear. Each sweep holds rotations the checks accept and reject.
    rot = turned([0.3, -1.1, 2.0])
    shear = np.zeros((3, 3))
    shear[0, 1] = 1.0
    perturbations = [
        (lambda e: rot * (1.0 + e), (1.0 + 1.0001e-5) ** (1 / 3) - 1.0),
        (lambda e: rot @ np.diag([1.0 + e, 1.0, 1.0 / (1.0 + e)]),
         (1.0 + 1.0001e-5) ** (1 / 2) - 1.0),
        (lambda e: rot @ (np.eye(3) + e * shear), 1e-9),
    ]

    def verdicts(cases):
        old = [old_pose_check(case) for case in cases]
        assert [pose_accepts(case) for case in cases] == old
        return old

    assert verdicts([rot, np.eye(3), -rot, np.diag([1.0, 1.0, -1.0])]) == [
        True, True, False, False]
    for perturb, edge in perturbations:
        for sign in (1.0, -1.0):
            old = verdicts([perturb(sign * edge * (1.0 + step))
                            for step in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)])
            assert any(old) and not all(old)
    broken = []
    for bad in (np.nan, np.inf, -np.inf):
        for entry in [(0, 0), (1, 2)]:
            broken.append(rot.copy())
            broken[-1][entry] = bad
    assert not any(verdicts(broken))


def test_camera_view_derives_mask():
    intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 3, 2)
    depth = np.array([[np.nan, 0.0, -1.0], [np.inf, 2.5, 1e-3]])
    view = CameraView("v", intr, IDENTITY, depth)
    valid = np.array([[False, False, False], [False, True, True]])
    assert np.array_equal(view.valid_mask, valid)
    assert np.isnan(view.depth[~valid]).all()
    assert np.array_equal(view.depth[valid], [2.5, 1e-3])


@pytest.mark.parametrize("edit, far", [
    ({"fx": 5e-324}, True), ({"fy": 1e-150}, True), ({"depth_value": 1e151}, True),
    ({"pose": Pose(np.eye(3), np.array([0.0, 0.0, 1e151]))}, True),
    ({"fx": 1e-140, "depth_value": 1e-20}, False), ({"depth_value": np.nan}, False),
])
def test_view_reaching_beyond_the_extent_is_rejected(edit, far):
    # A point coordinate past 1e150 would overflow the squares that normal
    # fits and point distances take, turning them into inf or NaN; only the
    # farthest point a view can reach counts, not its focal length alone.
    if far:
        with pytest.raises(ValueError, match="beyond 1e\\+150 of the origin"):
            flat_view(**edit)
    else:
        flat_view(**edit)


def test_overlap_record_bounds():
    with pytest.raises(ValueError):
        OverlapRecord("a", "b", 1.2, 0.0)


# -- backprojection ------------------------------------------------------------


def test_backproject_identity_camera():
    cloud = backproject(flat_view())
    # Pixel (0, 0) with the principal point at (0, 0): ray is the optical axis.
    on_axis = np.isclose(cloud.points, [0.0, 0.0, 1.0]).all(axis=1)
    assert on_axis.sum() == 1


def test_backproject_translation_equivariance():
    t = np.array([3.0, -2.0, 7.0])
    base = backproject(flat_view())
    moved = backproject(flat_view(pose=Pose(np.eye(3), t)))
    assert np.allclose(moved.points, base.points + t)


def test_backproject_no_valid_depth():
    intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 2, 2)
    view = CameraView("v", intr, IDENTITY, np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="no valid depth"):
        backproject(view)


def test_no_surfel_error_names_the_rule():
    # In a two-row checkerboard each valid pixel's 3x3 window holds itself
    # and at most two valid diagonal neighbours: valid depth, but no surfel.
    depth = np.where(np.indices((2, 6)).sum(axis=0) % 2 == 0, 1.0, np.nan)
    view = CameraView("v", CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 6, 2), IDENTITY, depth)
    assert view.valid_mask.any() and not view.surfel_mask.any()
    rule = "no valid depth with 3 valid neighbours in its 3x3 window in view 'v'"
    with pytest.raises(ValueError, match=rule):
        backproject(view)
    with pytest.raises(ValueError, match=rule):
        geometry.pairs_nso([view, flat_view("w")], [("v", "w")], NSOConfig())


def brute_surfel_mask(valid):
    """Valid pixels with at least 4 valid pixels in their 3x3 window, counted
    one pixel at a time over the part of the window inside the image."""
    h, w = valid.shape
    mask = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            window = valid[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2]
            mask[r, c] = valid[r, c] and int(window.sum()) >= 4
    return mask


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (2, 7), (6, 11), (13, 5)])
def test_surfel_mask_is_a_brute_force_3x3_count(shape):
    # Random holes (NaN, zero, negative and infinite depth) at every density,
    # so windows on all four borders and corners, and 1xN images, whose
    # windows hold at most 3 pixels, are all counted.
    rng = np.random.default_rng(sum(shape))
    h, w = shape
    intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, w, h)
    for density in (0.2, 0.5, 0.7, 0.9, 1.0):
        depth = rng.uniform(0.5, 2.0, size=shape)
        holes = rng.random(shape) >= density
        depth[holes] = rng.choice([np.nan, 0.0, -1.0, np.inf], size=holes.sum())
        view = CameraView("v", intr, IDENTITY, depth)
        assert view.surfel_mask.dtype == bool
        assert np.array_equal(view.surfel_mask, brute_surfel_mask(view.valid_mask))
        assert np.array_equal(view.valid_mask, ~holes)


def test_rendered_and_read_views_carry_the_surfel_mask(tmp_path):
    rendered = grid_views(2, seed=4, spacing=1.0)
    rng = np.random.default_rng(4)
    holed = []
    for view in rendered:
        depth = view.depth.copy()
        depth[rng.random(depth.shape) < 0.4] = np.nan
        holed.append(CameraView(view.id, view.intrinsics, view.pose, depth))
    dataset_io.write_scene(tmp_path, holed)
    for view in rendered + dataset_io.read_scene(tmp_path):
        want = brute_surfel_mask(view.valid_mask)
        assert want.any()
        assert np.array_equal(view.surfel_mask, want)


def test_plane_normals():
    # Fronto-parallel plane at z=2: every normal faces back at the camera.
    cloud = backproject(flat_view(depth_value=2.0, size=7))
    assert np.allclose(cloud.normals, [0.0, 0.0, -1.0], atol=1e-6)


def test_normals_near_holes_are_window_plane_fits():
    # Each normal is the smallest eigenvector of the covariance of its 3x3
    # window's valid points, fitted here one pixel at a time, so a window
    # whose valid points are miscounted beside a hole shows.
    view = grid_views(2, seed=4, spacing=1.0)[1]
    depth = view.depth.copy()
    depth[np.random.default_rng(5).random(depth.shape) < 0.4] = np.nan
    view = CameraView(view.id, view.intrinsics, view.pose, depth)
    intr = view.intrinsics
    h, w = view.depth.shape
    want = []
    for r, c in zip(*np.nonzero(view.surfel_mask)):
        rows, cols = np.mgrid[max(r - 1, 0):min(r + 2, h), max(c - 1, 0):min(c + 2, w)]
        valid = view.valid_mask[rows, cols]
        rows, cols = rows[valid], cols[valid]
        z = view.depth[rows, cols]
        pts = np.stack([(cols - intr.cx) / intr.fx * z, (rows - intr.cy) / intr.fy * z, z],
                       axis=1)
        normal = np.linalg.eigh(np.cov(pts.T, bias=True))[1][:, 0]
        own = pts[(rows == r) & (cols == c)][0]
        want.append(-normal if normal @ own > 0 else normal)
    assert 0 < len(want) < view.n_valid
    got = backproject(view).normals
    assert np.allclose(got, np.array(want) @ view.pose.rotation.T, atol=1e-6)


def test_sphere_normals_match_analytic():
    sphere = SphereSurface(center=(0.0, 0.0, 0.0), radius=2.0)
    view = render_depth(
        sphere, Placement("s", position=(0.0, 0.0, 10.0), target=(0.0, 0.0, 0.0),
                          focal=120.0),
    )
    cloud = backproject(view)
    analytic = cloud.points / np.linalg.norm(cloud.points, axis=1, keepdims=True)
    cos = np.einsum("ij,ij->i", cloud.normals, analytic)
    angles = np.degrees(np.arccos(np.clip(np.abs(cos), -1.0, 1.0)))
    # Exclude the grazing limb, where a 3x3 planar fit is ill-conditioned.
    interior = np.linalg.norm(cloud.points[:, :2], axis=1) < 1.5
    assert interior.sum() > 1000
    assert np.max(angles[interior]) < 2.0


def test_isolated_pixel_dropped():
    intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 6, 6)
    depth = np.full((6, 6), np.nan)
    depth[0, 0] = 1.0          # isolated: no valid neighbors
    depth[3:5, 3:5] = 1.0      # 2x2 block: each pixel has 4 valid in its 3x3
    cloud = backproject(CameraView("v", intr, IDENTITY, depth))
    assert len(cloud) == 4
    # Pixel (0, 0) backprojects onto the optical axis at depth 1.
    assert not np.isclose(cloud.points, [0.0, 0.0, 1.0]).all(axis=1).any()


def test_backproject_normals_unit_length():
    view = flat_view(depth_value=2.0, size=6)
    lengths = np.linalg.norm(backproject(view).normals, axis=1)
    assert np.allclose(lengths, 1.0, atol=1e-6)


def fit_mask(keep, case):
    """The pixels a normal-fit case selects, all of them kept pixels."""
    fit = np.zeros_like(keep)
    if case == "pixel":
        rows, cols = np.nonzero(keep)
        fit[rows[len(rows) // 2], cols[len(rows) // 2]] = True
    elif case == "top":
        fit[:2] = keep[:2]
    elif case == "bottom":
        fit[-2:] = keep[-2:]
    elif case == "left":
        fit[:, :2] = keep[:, :2]
    elif case == "right":
        fit[:, -2:] = keep[:, -2:]
    elif case == "corners":
        fit[0, -1] = fit[-1, 0] = True
    else:
        fit = keep.copy()
    assert fit.any() and not (fit & ~keep).any()
    return fit


@pytest.mark.parametrize("case", ["pixel", "top", "bottom", "left", "right",
                                  "corners", "keep", "holes"])
def test_fitted_normals_are_backprojects_bit_for_bit(case):
    # A normal fitted for any set of pixels has the bits backproject gives it.
    view = grid_views(2, seed=4, spacing=1.0)[1]
    if case == "holes":
        depth = view.depth.copy()
        depth[10:14, 20:30] = np.nan
        depth[30] = np.nan
        depth[::7, ::5] = np.nan
        view = CameraView(view.id, view.intrinsics, view.pose, depth)
    keep = view.surfel_mask
    fit = fit_mask(keep, case)
    normals = geometry._fit_normals(view, fit)
    assert normals.shape == (fit.sum(), 3)
    assert normals.tobytes() == backproject(view).normals[fit[keep]].tobytes()


# -- subsample -----------------------------------------------------------------


def test_subsample_noop_when_large_enough():
    cloud = random_cloud(np.random.default_rng(0), 50)
    assert subsample(cloud, 50, seed=1) is cloud
    assert subsample(cloud, 100, seed=1) is cloud


def test_subsample_deterministic():
    cloud = random_cloud(np.random.default_rng(0), 5000)
    a = subsample(cloud, 1000, seed=42)
    b = subsample(cloud, 1000, seed=42)
    assert len(a) == 1000
    assert np.array_equal(a.points, b.points)
    c = subsample(cloud, 1000, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_subsample_preserves_order():
    cloud = random_cloud(np.random.default_rng(1), 200)
    sub = subsample(cloud, 50, seed=0)
    idx = [np.nonzero((cloud.points == p).all(axis=1))[0][0] for p in sub.points]
    assert idx == sorted(idx)


# -- overlap counting ----------------------------------------------------------


def cloud_nso(src, dst, radius, weighted=True, brute_force=False):
    """(nso_xy, nso_yx) of two clouds, with no subsampling: each directed
    overlap is the match-weight sum over the source cloud, divided by its size."""
    cfg = NSOConfig(radius=radius, n_sub=max(len(src), len(dst)), weighted=weighted)
    rec = nso_from_clouds(src, dst, "x", "y", cfg, brute_force=brute_force)
    return rec.nso_xy, rec.nso_yx


def test_overlap_self_is_size():
    cloud = random_cloud(np.random.default_rng(2), 300)
    assert cloud_nso(cloud, cloud, radius=0.1, weighted=True) == (1.0, 1.0)


def test_overlap_disjoint_clouds():
    rng = np.random.default_rng(3)
    src = random_cloud(rng, 100)
    dst = SurfelCloud(src.points + 1.0, src.normals)
    assert cloud_nso(src, dst, radius=0.1) == (0.0, 0.0)


def test_overlap_interleaved_grids_match_brute_force():
    radius = 0.1
    xs = np.arange(10) * (radius / 2)
    gx, gy = np.meshgrid(xs, xs)
    pts_a = np.stack([gx.ravel(), gy.ravel(), np.zeros(100)], axis=1)
    pts_b = pts_a + radius / 4  # interleaved at half spacing
    normals = np.tile([0.0, 0.0, 1.0], (100, 1))
    a = SurfelCloud(pts_a, normals)
    b = SurfelCloud(pts_b, normals)
    for weighted in (False, True):
        assert cloud_nso(a, b, radius, weighted) == \
            cloud_nso(a, b, radius, weighted, brute_force=True)


@pytest.mark.parametrize("seed", range(6))
def test_overlap_tree_equals_brute_force(seed):
    rng = np.random.default_rng(seed)
    src = random_cloud(rng, rng.integers(50, 2000))
    dst = random_cloud(rng, rng.integers(50, 2000))
    for weighted in (False, True):
        assert cloud_nso(src, dst, 0.3, weighted) == \
            cloud_nso(src, dst, 0.3, weighted, brute_force=True)


def test_unweighted_at_least_weighted():
    rng = np.random.default_rng(9)
    src = random_cloud(rng, 500)
    dst = random_cloud(rng, 500)
    assert cloud_nso(src, dst, 0.3, weighted=False)[0] >= \
        cloud_nso(src, dst, 0.3, weighted=True)[0]


def test_overlap_empty_cloud():
    cloud = random_cloud(np.random.default_rng(0), 10)
    empty = SurfelCloud(np.zeros((0, 3)), np.zeros((0, 3)))
    assert overlap_count_brute(cloud, empty, 0.1) == 0.0
    assert overlap_count_brute(empty, cloud, 0.1) == 0.0


def one_matrix_match(src, dst, radius, weighted):
    """(within, idx, overlap) of the brute-force match from one full distance
    matrix: each source row's first minimum and its `<=` test."""
    dist = cdist(src.points, dst.points)
    idx = np.argmin(dist, axis=1)
    within = dist[np.arange(len(src)), idx] <= radius
    rows = np.flatnonzero(within)
    return (within, np.where(within, idx, 0),
            geometry._weighted_sum(src, dst, rows, idx[rows], weighted))


def test_blocked_brute_match_equals_one_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    dst = random_cloud(rng, 3000)
    step = geometry._BRUTE_BLOCK // len(dst)
    src = random_cloud(rng, 2 * step + step // 2)  # the last block is partial
    # The last source point lies apart from every other point, as far from
    # two destination points on either side of it: a bit-equal tie at 2**-5.
    src.points[-1] = (5.0, 5.0, 5.0)
    dst.points[7] = (5.0 + 2.0 ** -5, 5.0, 5.0)
    dst.points[2990] = (5.0 - 2.0 ** -5, 5.0, 5.0)
    one = random_cloud(rng, 1)
    cases = [(src, dst), (dst, src), (one, dst), (src, one), (one, one),
             (one, SurfelCloud(one.points + 1.0, one.normals))]
    for a, b in cases:
        for weighted in (False, True):
            within, idx, overlap = one_matrix_match(a, b, 0.05, weighted)
            got = geometry._match_brute(a.points, b.points, 0.05)
            assert np.array_equal(got[0], within) and np.array_equal(got[1], idx)
            assert overlap_count_brute(a, b, 0.05, weighted) == overlap
    within, idx = geometry._match_brute(src.points, dst.points, 0.05)
    assert within[-1] and idx[-1] == 7
    assert 0 < within.sum() < len(src) - 1
    # A destination cloud larger than a block takes one source row at a time.
    monkeypatch.setattr(geometry, "_BRUTE_BLOCK", len(dst) - 1)
    got = geometry._match_brute(src.points, dst.points, 0.05)
    assert np.array_equal(got[0], within) and np.array_equal(got[1], idx)


def test_oracle_memory_does_not_grow_with_both_cloud_sizes():
    # One full distance matrix of 2000 subsampled points by the other view's
    # 12288 would take about 197 MB.
    views = [render_depth(default_surface(3), Placement(
        view_id, position=(x, 0.0, DEFAULT_HEIGHT), target=(x, 0.0, 0.0),
        width=128, height=96)) for view_id, x in (("a", 0.0), ("b", 0.5))]
    tracemalloc.start()
    try:
        [rec] = geometry.pairs_nso(views, [("a", "b")], NSOConfig(n_sub=2000), oracle=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.nso_xy > 0 and rec.nso_yx > 0
    assert min(view.n_valid for view in views) > 10000
    assert peak < 48 * 2 ** 20


# -- NSO -----------------------------------------------------------------------


def plane_pair(area_ratio=0.25):
    """Two nadir plane views; the second images area_ratio of the first.

    The base focal keeps the ground sample distance off the 0.1 match
    radius, so no point pair sits exactly on the threshold.
    """
    surface = HeightfieldSurface(0.0)
    focal = 320.0 / 3.0
    wide = render_depth(surface, Placement(
        "wide", position=(0, 0, 10.0), target=(0, 0, 0.0), focal=focal))
    narrow = render_depth(surface, Placement(
        "narrow", position=(0, 0, 10.0), target=(0, 0, 0.0),
        focal=focal / np.sqrt(area_ratio)))
    return wide, narrow


def test_nso_self_is_exactly_one():
    view, _ = plane_pair()
    for weighted in (True, False):
        rec = compute_nso(view, view, NSOConfig(seed=3, weighted=weighted))
        assert rec.nso_xy == 1.0
        assert rec.nso_yx == 1.0


def test_nso_partial_visibility():
    # All of the narrow view is seen by the wide one; 80% the other way.
    wide, narrow = plane_pair(area_ratio=0.8)
    rec = compute_nso(narrow, wide, NSOConfig(seed=0))
    assert rec.nso_xy == pytest.approx(1.0, abs=0.02)
    assert rec.nso_yx == pytest.approx(0.8, abs=0.05)


def test_nso_zoom_quarter():
    wide, narrow = plane_pair(area_ratio=0.25)
    rec = compute_nso(narrow, wide, NSOConfig(seed=0))
    assert rec.nso_xy == pytest.approx(1.0, abs=0.02)
    assert rec.nso_yx == pytest.approx(0.25, abs=0.05)


def test_nso_rigid_motion_invariance():
    wide, narrow = plane_pair()
    rng = np.random.default_rng(4)
    # Random global rigid motion applied to both camera poses.
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    t0 = rng.uniform(-20, 20, size=3)

    def moved(view):
        pose = Pose(q @ view.pose.rotation, q @ view.pose.translation + t0)
        return CameraView(view.id, view.intrinsics, pose, view.depth.copy())

    cfg = NSOConfig(seed=0)
    base = compute_nso(wide, narrow, cfg)
    shifted = compute_nso(moved(wide), moved(narrow), cfg)
    assert shifted.nso_xy == pytest.approx(base.nso_xy, abs=1e-9)
    assert shifted.nso_yx == pytest.approx(base.nso_yx, abs=1e-9)


def test_nso_deterministic():
    wide, narrow = plane_pair()
    cfg = NSOConfig(seed=12)
    a = compute_nso(wide, narrow, cfg)
    b = compute_nso(wide, narrow, cfg)
    assert (a.nso_xy, a.nso_yx) == (b.nso_xy, b.nso_yx)


def test_nso_brute_force_route_matches():
    wide, narrow = plane_pair()
    cx, cy = backproject(wide), backproject(narrow)
    cfg = NSOConfig(seed=2, n_sub=800)
    fast = nso_from_clouds(cx, cy, "w", "n", cfg)
    ref = nso_from_clouds(cx, cy, "w", "n", cfg, brute_force=True)
    assert (fast.nso_xy, fast.nso_yx) == (ref.nso_xy, ref.nso_yx)


def test_nso_values_in_unit_interval():
    wide, narrow = plane_pair()
    rec = compute_nso(wide, narrow, NSOConfig(seed=0, weighted=False))
    assert 0.0 <= rec.nso_xy <= 1.0
    assert 0.0 <= rec.nso_yx <= 1.0


# -- all-pairs NSO -------------------------------------------------------------


def grid_views(n, seed, spacing):
    return render_script(default_surface(seed), grid_script(n, seed, spacing=spacing),
                         seed).views


# (grid size, seed, spacing, first view, second view, n_sub): an overlapping
# pair, the same pair with each source subsampled below its 3072 surfels,
# and the first and last views of a sparse grid, whose bounds are apart.
ENTRY_POINT_PAIRS = {
    "overlapping": (2, 4, 1.0, 0, 1, 5000),
    "subsampled": (2, 4, 1.0, 0, 1, 1000),
    "culled": (4, 2, 6.0, 0, 15, 5000),
}


@pytest.mark.parametrize("case", sorted(ENTRY_POINT_PAIRS))
@pytest.mark.parametrize("weighted", [True, False])
def test_entry_points_agree_bit_for_bit(case, weighted):
    n, seed, spacing, i, j, n_sub = ENTRY_POINT_PAIRS[case]
    views = grid_views(n, seed, spacing)
    vx, vy = views[i], views[j]
    cfg = NSOConfig(seed=seed, n_sub=n_sub, weighted=weighted)
    cx, cy = backproject(vx), backproject(vy)
    assert (n_sub < len(cx)) == (case == "subsampled")
    culled = not geometry._near(*geometry._bounds(cx.points), geometry._bounds(cy.points),
                                cfg.radius)
    assert culled == (case == "culled")
    records = [compute_nso(vx, vy, cfg),
               nso_from_clouds(cx, cy, vx.id, vy.id, cfg),
               geometry.pairs_nso([vx, vy], [(vx.id, vy.id)], cfg)[0],
               nso_from_clouds(cx, cy, vx.id, vy.id, cfg, brute_force=True)]
    assert all(rec == records[-1] for rec in records)
    assert (records[0].nso_xy > 0) == (case != "culled")


def test_compute_nso_of_two_views_that_share_an_id():
    # The views are keyed by position, so a second view under the first's id
    # is still the second view, not the first one again.
    vx, vy = grid_views(2, seed=4, spacing=1.0)[:2]
    twin = CameraView(vx.id, vy.intrinsics, vy.pose, vy.depth)
    cfg = NSOConfig(seed=4)
    rec = compute_nso(vx, twin, cfg)
    ref = nso_from_clouds(backproject(vx), backproject(vy), vx.id, vx.id, cfg,
                          brute_force=True)
    assert rec == ref
    assert 0 < rec.nso_xy < 1 and 0 < rec.nso_yx < 1


def test_all_pairs_oracle_on_sparse_grid():
    # At spacing 6 most footprints are apart, so most pairs are culled.
    views = grid_views(4, seed=2, spacing=6.0)
    cfg = NSOConfig(seed=2, n_sub=400)
    records = all_pairs_nso(views, cfg, oracle=True)
    clouds = {v.id: backproject(v) for v in views}
    bounds = {img_id: geometry._bounds(cloud.points) for img_id, cloud in clouds.items()}
    culled = [not geometry._near(*bounds[rec.id_x], bounds[rec.id_y], cfg.radius)
              for rec in records]
    assert len(records) == len(culled) == 120
    assert sum(culled) >= 80
    # oracle=True has compared every record with brute force already.
    for rec in records:
        assert nso_from_clouds(clouds[rec.id_x], clouds[rec.id_y], rec.id_x, rec.id_y, cfg) == rec


def test_oracle_checks_culled_pairs(monkeypatch):
    # A cull that drops overlapping pairs must be caught by the oracle.
    monkeypatch.setattr(geometry, "_near", lambda lo, hi, bounds, radius: False)
    views = grid_views(2, seed=3, spacing=1.0)
    with pytest.raises(geometry.OracleMismatchError, match="brute force"):
        all_pairs_nso(views, NSOConfig(seed=3, n_sub=300), oracle=True)


def test_oracle_holds_at_most_two_full_clouds(monkeypatch):
    # The oracle backprojects each checked pair's two views afresh, so its
    # memory does not grow with the number of views.
    views = grid_views(2, seed=3, spacing=1.0)
    built, alive = [], []
    real_backproject, real_nso = geometry.backproject, geometry.nso_from_clouds

    def spy_backproject(view):
        cloud = real_backproject(view)
        built.append(weakref.ref(cloud))
        return cloud

    def spy_nso(*args, brute_force=False, **kwargs):
        if brute_force:
            alive.append(sum(ref() is not None for ref in built))
        return real_nso(*args, brute_force=brute_force, **kwargs)

    monkeypatch.setattr(geometry, "backproject", spy_backproject)
    monkeypatch.setattr(geometry, "nso_from_clouds", spy_nso)
    records = all_pairs_nso(views, NSOConfig(seed=3, n_sub=300), oracle=True)
    assert len(alive) == len(records) == 6
    assert max(alive) == 2


def test_oracle_backprojects_each_first_view_once(monkeypatch):
    # all_pairs_nso lists the pairs grouped by first view, and the oracle keeps
    # that view's cloud while its pairs run: on 4 views it backprojects 3 first
    # views and 6 second ones, where backprojecting both views of every pair
    # took 12. The records are those of a run without the oracle.
    views = grid_views(2, seed=3, spacing=1.0)
    cfg = NSOConfig(seed=3, n_sub=300)
    plain = all_pairs_nso(views, cfg)
    built = []
    real_backproject = geometry.backproject

    def spy_backproject(view):
        built.append(view.id)
        return real_backproject(view)

    monkeypatch.setattr(geometry, "backproject", spy_backproject)
    assert all_pairs_nso(views, cfg, oracle=True) == plain
    ids = [view.id for view in views]
    assert built == [img_id for i, first in enumerate(ids[:-1])
                     for img_id in [first, *ids[i + 1:]]]
    assert len(built) == 9


def spy_eigh(monkeypatch):
    """The number of matrices of each np.linalg.eigh call, one normal fit each."""
    sizes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


def test_unweighted_all_pairs_fits_no_normal(monkeypatch):
    fits = spy_eigh(monkeypatch)
    records = all_pairs_nso(grid_views(2, seed=4, spacing=1.0),
                            NSOConfig(seed=4, weighted=False))
    assert any(rec.nso_xy > 0 for rec in records)
    assert fits == []


def spy_tree_sizes(monkeypatch):
    """The number of points of each cKDTree built, one per prepared view."""
    sizes = []
    tree = scipy.spatial.cKDTree

    def spy(points):
        sizes.append(len(points))
        return tree(points)

    monkeypatch.setattr(scipy.spatial, "cKDTree", spy)
    return sizes


def test_sparse_grid_fits_only_normals_in_reach(monkeypatch):
    # At spacing 6 a view meets at most two others, so only the strips in
    # reach of a live partner get normals and a k-d tree, and a view with
    # none gets none. Each fitted normal is backproject's.
    views = grid_views(4, seed=2, spacing=6.0)
    cfg = NSOConfig(seed=2, n_sub=400)
    full = {view.id: backproject(view) for view in views}
    fits = spy_eigh(monkeypatch)
    trees = spy_tree_sizes(monkeypatch)
    surfel_points, reached_cloud = geometry._surfel_points, geometry._reached_cloud
    seen = {}  # view id -> [live partners, its kept surfels, its points in reach]

    def spy_points(view):
        points = surfel_points(view)
        seen[view.id] = [0, points, geometry._Reached(points[:0], points[:0],
                                                      np.zeros(len(points), dtype=bool))]
        return points

    def spy_reached(points, near, view, cfg):
        seen[view.id][0] = len(near)
        seen[view.id][2] = reached_cloud(points, near, view, cfg)
        return seen[view.id][2]

    monkeypatch.setattr(geometry, "_surfel_points", spy_points)
    monkeypatch.setattr(geometry, "_reached_cloud", spy_reached)
    all_pairs_nso(views, cfg)
    fitted = kept = 0
    for view in views:
        n_partners, points, in_reach = seen[view.id]
        rows = np.ones(len(points), dtype=bool) if in_reach.reach is None else in_reach.reach
        assert np.array_equal(points, full[view.id].points)
        assert np.array_equal(in_reach.points, full[view.id].points[rows])
        assert np.array_equal(in_reach.normals, full[view.id].normals[rows])
        if n_partners == 0:
            assert not rows.any()
        fitted += rows.sum()
        kept += len(points)
    assert any(n_partners == 0 for n_partners, *_ in seen.values())
    assert sum(fits) == fitted < kept
    assert sum(trees) == fitted


def test_sparse_grid_indexes_only_views_in_a_live_pair(monkeypatch):
    # At spacing 6 some views have no live partner: they are bounded and
    # culled, but get no normals and no k-d tree. Every view is bounded, and
    # every normal fitted, before the first tree is built.
    views = grid_views(4, seed=2, spacing=6.0)
    cfg = NSOConfig(seed=2, n_sub=400)
    surfel_points, reached_cloud = geometry._surfel_points, geometry._reached_cloud
    index_cloud = geometry._index_cloud
    events, owner = [], {}  # owner: id() of a cloud in reach -> its view id

    def spy_points(view):
        events.append(("surfels", view.id, 0))
        return surfel_points(view)

    def spy_reached(points, near, view, cfg):
        events.append(("surfels", view.id, len(near)))
        in_reach = reached_cloud(points, near, view, cfg)
        owner[id(in_reach)] = view.id
        return in_reach

    def spy_index(cloud, cfg):
        events.append(("index", owner[id(cloud)]))
        return index_cloud(cloud, cfg)

    monkeypatch.setattr(geometry, "_surfel_points", spy_points)
    monkeypatch.setattr(geometry, "_reached_cloud", spy_reached)
    monkeypatch.setattr(geometry, "_index_cloud", spy_index)
    all_pairs_nso(views, cfg)
    n = len(views)
    built = [event for event in events if event[0] == "surfels"]
    assert events[:len(built)] == built
    bounded, fitted, indexed = built[:n], built[n:], events[len(built):]
    assert [n_partners for *_, n_partners in bounded] == [0] * n
    assert sorted(img_id for _, img_id, _ in bounded) == sorted(v.id for v in views)
    assert all(n_partners for *_, n_partners in fitted)
    live = sorted(img_id for _, img_id, _ in fitted)
    assert sorted(img_id for _, img_id in indexed) == live
    assert 0 < len(live) < n


def within_radius(points, other, radius, block=512):
    """Per point, whether a point of `other` lies within radius, by cdist."""
    return np.concatenate([(cdist(points[start:start + block], other) <= radius).any(axis=1)
                           for start in range(0, len(points), block)])


@pytest.mark.parametrize("n, seed, spacing", [(4, 2, 6.0), (2, 4, 1.0)])
def test_reach_holds_every_point_within_radius_of_a_partner(monkeypatch, n, seed, spacing):
    # A point left out of reach is dropped from its view's tree and sources,
    # so a reach test that misses one would lose its matches silently.
    views = grid_views(n, seed, spacing)
    cfg = NSOConfig(seed=seed)
    reached_cloud = geometry._reached_cloud
    reach = {}

    def spy_reached(points, near, view, cfg):
        in_reach = reached_cloud(points, near, view, cfg)
        mask = in_reach.reach
        reach[view.id] = np.ones(len(points), dtype=bool) if mask is None else mask
        return in_reach

    monkeypatch.setattr(geometry, "_reached_cloud", spy_reached)
    records = all_pairs_nso(views, cfg)
    points = {view.id: backproject(view).points for view in views}
    bounds = {img_id: geometry._bounds(p) for img_id, p in points.items()}
    pairs = [(rec.id_x, rec.id_y) for rec in records]
    live = [pair for pair, searched in zip(pairs, geometry._cull(pairs, bounds, cfg.radius))
            if searched]
    matched = 0
    for id_x, id_y in live:
        for a, b in ((id_x, id_y), (id_y, id_x)):
            near = within_radius(points[a], points[b], cfg.radius)
            assert reach[a][near].all()
            matched += near.sum()
    assert live and matched > 0
    assert sum(mask.sum() for mask in reach.values()) < sum(map(len, points.values()))


def test_normal_out_of_reach_fails_loudly(monkeypatch):
    # A reach test that misses a point some pair matches drops that match
    # silently; the oracle rejects the overlap rather than returning it.
    near = geometry._near

    def points_never_near(lo, hi, bounds, radius):
        return near(lo, hi, bounds, radius) if lo.ndim == 1 else np.zeros(len(lo), dtype=bool)

    monkeypatch.setattr(geometry, "_near", points_never_near)
    with pytest.raises(geometry.OracleMismatchError, match="brute force"):
        all_pairs_nso(grid_views(2, seed=4, spacing=1.0), NSOConfig(seed=4), oracle=True)


def test_subsampled_pairs_in_reach_match_the_oracle(monkeypatch):
    # 128x96 views hold 12288 points, so at n_sub=2000 every live pair takes
    # the per-point search, whose sources are the subsample's points in
    # reach, each weight placed at its subsample position before the sum.
    script = grid_script(2, 6, spacing=2.0)
    script.placements[:] = [replace(p, width=128, height=96) for p in script.placements]
    views = render_script(default_surface(6), script, 6).views
    cfg = NSOConfig(seed=6, n_sub=2000)
    index_cloud, query_nso = geometry._index_cloud, geometry._query_nso
    indexed, queried = [], []

    def spy_index(cloud, cfg):
        indexed.append(index_cloud(cloud, cfg))
        return indexed[-1]

    def spy_query(src, dst, cfg, workers):
        queried.append(src)
        return query_nso(src, dst, cfg, workers)

    monkeypatch.setattr(geometry, "_index_cloud", spy_index)
    monkeypatch.setattr(geometry, "_query_nso", spy_query)
    pairs = [(views[0].id, view.id) for view in views[1:]]
    records = geometry.pairs_nso(views, pairs, cfg, oracle=True)
    assert all(rec.nso_xy > 0 and rec.nso_yx > 0 for rec in records)
    assert queried
    assert any(view.sub.reach is not None and not view.sub.reach.all() for view in indexed)


def test_all_pairs_memory_is_bounded():
    # The first 24 survey views: a prepared view holds only its points in
    # reach and shares the cloud's arrays when all are, so no full cloud is
    # kept beside what its pairs read. 5.0 MiB is the peak before views were
    # prepared over their points in reach (4.83 MiB) plus a small margin;
    # copying each view's points in reach beside its full cloud takes 6.7.
    script = default_script(7)
    views = render_script(default_surface(7), CameraScript(script.placements[:24]), 7).views
    tracemalloc.start()
    try:
        records = all_pairs_nso(views, NSOConfig(seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 276
    assert peak < 5.0 * 2 ** 20


def slab_cloud(x, n=8, spacing=0.25):
    ys, zs = np.meshgrid(np.arange(n) * spacing, np.arange(n) * spacing)
    points = np.stack([np.full(n * n, x), ys.ravel(), zs.ravel()], axis=1)
    normals = np.tile([0.0, 0.0, 1.0], (n * n, 1))
    return SurfelCloud(points, normals)


@pytest.mark.parametrize("weighted", [True, False])
def test_cull_keeps_pair_exactly_radius_apart(weighted):
    # Nearest points are exactly `radius` apart along x: a match, not a cull.
    cfg = NSOConfig(radius=0.5, seed=0, weighted=weighted)
    a, b = slab_cloud(0.0), slab_cloud(0.5)
    assert geometry._near(*geometry._bounds(a.points), geometry._bounds(b.points), cfg.radius)
    rec = nso_from_clouds(a, b, "a", "b", cfg)
    assert rec == nso_from_clouds(a, b, "a", "b", cfg, brute_force=True)
    assert (rec.nso_xy, rec.nso_yx) == (1.0, 1.0)


def test_cull_drops_pair_just_beyond_radius():
    cfg = NSOConfig(radius=0.5, seed=0)
    a, b = slab_cloud(0.0), slab_cloud(0.5 * (1 + 1e-5))
    assert not geometry._near(*geometry._bounds(a.points), geometry._bounds(b.points), cfg.radius)
    rec = nso_from_clouds(a, b, "a", "b", cfg)
    assert rec == nso_from_clouds(a, b, "a", "b", cfg, brute_force=True)
    assert (rec.nso_xy, rec.nso_yx) == (0.0, 0.0)


@pytest.mark.parametrize("n_sub", [1, 5000])
@pytest.mark.parametrize("weighted", [True, False])
def test_live_pair_with_no_point_in_reach(monkeypatch, weighted, n_sub):
    # The two diagonal clouds' bounds are 0.05 apart in x, so the pair is
    # not culled, yet no point of either lies in the other's padded bounds:
    # both views are prepared over no point, and nothing can match.
    up = [0.0, 0.0, 1.0]
    a = point_cloud([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]], [up, up])
    b = point_cloud([[1.05, -1.0, 0.0], [2.0, 0.0, 0.0]], [up, up])
    cfg = NSOConfig(radius=0.1, n_sub=n_sub, seed=0, weighted=weighted)
    assert geometry._near(*geometry._bounds(a.points), geometry._bounds(b.points), cfg.radius)
    trees = spy_tree_sizes(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = nso_from_clouds(a, b, "a", "b", cfg)
    assert trees == [0, 0]
    assert rec == nso_from_clouds(a, b, "a", "b", cfg, brute_force=True)
    assert (rec.nso_xy, rec.nso_yx) == (0.0, 0.0)


def test_culled_pair_builds_no_tree(monkeypatch):
    built = []
    tree = scipy.spatial.cKDTree

    def spy(points):
        built.append(len(points))
        return tree(points)

    monkeypatch.setattr(scipy.spatial, "cKDTree", spy)
    cfg = NSOConfig(radius=0.5, seed=0)
    rec = nso_from_clouds(slab_cloud(0.0), slab_cloud(0.5 * (1 + 1e-5)), "a", "b", cfg)
    assert (rec.nso_xy, rec.nso_yx) == (0.0, 0.0)
    assert built == []
    nso_from_clouds(slab_cloud(0.0), slab_cloud(0.5), "a", "b", cfg)
    assert built == [64, 64]


def point_cloud(points, normals):
    points = np.asarray(points, dtype=np.float64)
    return SurfelCloud(points, np.asarray(normals, dtype=np.float64))


@pytest.mark.parametrize("first_up", [True, False])
def test_tied_destinations_take_lowest_row(first_up):
    # Both y points lie exactly 0.05 from the x point; only their normals
    # differ. The match is the lower y row, as the brute-force argmin picks.
    up, side = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
    x = point_cloud([[0.0, 0.0, 0.0]], [up])
    y = point_cloud([[0.03, 0.04, 0.0], [0.04, 0.03, 0.0]],
                    [up, side] if first_up else [side, up])
    cfg = NSOConfig(radius=0.1, seed=0)
    rec = nso_from_clouds(x, y, "x", "y", cfg)
    assert rec == nso_from_clouds(x, y, "x", "y", cfg, brute_force=True)
    assert (rec.nso_xy, rec.nso_yx) == (1.0 if first_up else 0.0, 0.5)


def test_point_outside_subsample_is_still_a_destination():
    # x is a line of 10 points, 1 apart, subsampled to 9. Row `out` is not in
    # the subsample and row `kept` is; y has one point next to each.
    cfg = NSOConfig(radius=0.1, n_sub=9, seed=3)
    up = [0.0, 0.0, 1.0]
    x = point_cloud([[float(k), 0.0, 0.0] for k in range(10)], [up] * 10)
    sub = subsample(x, cfg.n_sub, cfg.seed).points[:, 0].tolist()
    out = next(k for k in range(10) if float(k) not in sub)
    kept = next(k for k in range(10) if float(k) in sub)
    y = point_cloud([[out + 0.05, 0.0, 0.0], [kept + 0.05, 0.0, 0.0]], [up, up])
    rec = nso_from_clouds(x, y, "x", "y", cfg)
    assert rec == nso_from_clouds(x, y, "x", "y", cfg, brute_force=True)
    # x -> y: only `kept` is a source; y -> x: both y points find a match.
    assert (rec.nso_xy, rec.nso_yx) == (1 / 9, 1.0)


def pair_route(clouds, cfg):
    a, b = (geometry._index_cloud(geometry._Reached(cloud.points, cloud.normals, None), cfg)
            for cloud in clouds)
    return geometry._use_join(a, b)


def test_join_serves_only_unsubsampled_sparse_pairs():
    # A grid view holds 3072 points with about 5 of its own within the
    # default radius of each, so the radius join serves its pairs. A
    # subsample, or a radius that gives each point far more neighbours,
    # sends the pair to the per-point search.
    clouds = [backproject(v) for v in grid_views(2, seed=4, spacing=1.0)[:2]]
    assert pair_route(clouds, NSOConfig(seed=4))
    assert not pair_route(clouds, NSOConfig(seed=4, n_sub=3000))
    assert not pair_route(clouds, NSOConfig(seed=4, radius=0.4))


@pytest.mark.parametrize("weighted", [True, False])
def test_join_and_point_search_agree(monkeypatch, weighted):
    views = grid_views(2, seed=4, spacing=1.0)
    cfg = NSOConfig(seed=4, weighted=weighted)
    assert pair_route([backproject(v) for v in views[:2]], cfg)
    joined = all_pairs_nso(views, cfg, oracle=True)
    monkeypatch.setattr(geometry, "_JOIN_MAX_NEIGHBOURS", -1.0)
    assert not pair_route([backproject(v) for v in views[:2]], cfg)
    assert all_pairs_nso(views, cfg) == joined


def test_all_pairs_threads_do_not_change_records():
    views = grid_views(3, seed=4, spacing=2.0)
    cfg = NSOConfig(seed=4, n_sub=600)
    assert all_pairs_nso(views, cfg, threads=2) == all_pairs_nso(views, cfg, threads=1)


def test_all_pairs_rejects_zero_threads():
    views = grid_views(2, seed=4, spacing=2.0)
    with pytest.raises(ValueError, match="threads"):
        all_pairs_nso(views, NSOConfig(), threads=0)


# sha256 of pairs.csv for a 3x3 grid at spacing 4 (17 of 36 pairs disjoint),
# as written before NSO built one tree per view and culled disjoint pairs.
PINNED_PAIRS_SHA256 = {
    True: "07aecd094430eff8cea5190e12ea69d82b93b0d2867fd0491c59562655d528c4",
    False: "cd8baffe122941a11f6b3fb20a99a96d395ec5dacc27dcc6f5cd9fb2af9a3751",
}


@pytest.mark.parametrize("weighted", [True, False])
def test_all_pairs_bytes_pinned(tmp_path, weighted):
    views = grid_views(3, seed=5, spacing=4.0)
    records = all_pairs_nso(views, NSOConfig(seed=5, weighted=weighted))
    dataset_io.write_overlaps(tmp_path / "pairs.csv", records)
    digest = hashlib.sha256((tmp_path / "pairs.csv").read_bytes()).hexdigest()
    assert digest == PINNED_PAIRS_SHA256[weighted]
