import hashlib

import numpy as np
import pytest

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
    PlaneSurface,
    Placement,
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


def test_camera_view_derives_mask():
    intr = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 3, 2)
    depth = np.array([[np.nan, 0.0, -1.0], [np.inf, 2.5, 1e-3]])
    view = CameraView("v", intr, IDENTITY, depth)
    valid = np.array([[False, False, False], [False, True, True]])
    assert np.array_equal(view.valid_mask, valid)
    assert np.isnan(view.depth[~valid]).all()
    assert np.array_equal(view.depth[valid], [2.5, 1e-3])


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


def test_plane_normals():
    # Fronto-parallel plane at z=2: every normal faces back at the camera.
    cloud = backproject(flat_view(depth_value=2.0, size=7))
    assert np.allclose(cloud.normals, [0.0, 0.0, -1.0], atol=1e-6)


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


# -- NSO -----------------------------------------------------------------------


def plane_pair(area_ratio=0.25):
    """Two nadir plane views; the second images area_ratio of the first.

    The base focal keeps the ground sample distance off the 0.1 match
    radius, so no point pair sits exactly on the threshold.
    """
    surface = PlaneSurface(0.0)
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


def test_all_pairs_oracle_on_sparse_grid(monkeypatch):
    # At spacing 6 most footprints are apart, so most pairs are culled.
    views = grid_views(4, seed=2, spacing=6.0)
    cfg = NSOConfig(seed=2, n_sub=400)
    near = geometry._near
    culled = []

    def counting(lo, hi, bounds, radius):
        result = near(lo, hi, bounds, radius)
        if lo.ndim == 1:  # the bounds of a view, not its points
            culled.append(not result)
        return result

    monkeypatch.setattr(geometry, "_near", counting)
    records = all_pairs_nso(views, cfg, oracle=True)
    assert len(records) == len(culled) == 120
    assert sum(culled) >= 80
    clouds = {v.id: backproject(v) for v in views}
    for rec in records:
        for brute_force in (False, True):
            ref = nso_from_clouds(clouds[rec.id_x], clouds[rec.id_y],
                                  rec.id_x, rec.id_y, cfg, brute_force=brute_force)
            assert ref == rec


def test_oracle_checks_culled_pairs(monkeypatch):
    # A cull that drops overlapping pairs must be caught by the oracle.
    monkeypatch.setattr(geometry, "_near", lambda lo, hi, bounds, radius: False)
    views = grid_views(2, seed=3, spacing=1.0)
    with pytest.raises(geometry.OracleMismatchError, match="brute force"):
        all_pairs_nso(views, NSOConfig(seed=3, n_sub=300), oracle=True)


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


def test_sparse_grid_fits_only_normals_in_reach(monkeypatch):
    # At spacing 6 a view meets at most two others, so only the strips in
    # reach of a live partner get normals, and a view with none gets none.
    # Each fitted normal is backproject's.
    views = grid_views(4, seed=2, spacing=6.0)
    cfg = NSOConfig(seed=2, n_sub=400)
    full = {view.id: backproject(view) for view in views}
    fits = spy_eigh(monkeypatch)
    surfels = geometry._surfels
    seen = {}  # view id -> (live partners, the cloud its pairs read)

    def spy(view, near=None, radius=0.0):
        cloud = surfels(view, near, radius)
        seen[view.id] = (len(near), cloud)
        return cloud

    monkeypatch.setattr(geometry, "_surfels", spy)
    all_pairs_nso(views, cfg)
    fitted = kept = 0
    for view in views:
        n_partners, cloud = seen[view.id]
        rows = ~np.isnan(cloud.normals).any(axis=1)
        assert np.array_equal(cloud.points, full[view.id].points)
        assert np.array_equal(cloud.normals[rows], full[view.id].normals[rows])
        if n_partners == 0:
            assert not rows.any()
        fitted += rows.sum()
        kept += len(cloud)
    assert any(n_partners == 0 for n_partners, _ in seen.values())
    assert sum(fits) == fitted < kept


def test_sparse_grid_indexes_only_views_in_a_live_pair(monkeypatch):
    # At spacing 6 some views have no live partner: they are bounded and
    # culled, but get no normals and no k-d tree. Every view is bounded, and
    # every normal fitted, before the first tree is built.
    views = grid_views(4, seed=2, spacing=6.0)
    cfg = NSOConfig(seed=2, n_sub=400)
    clouds = {view.id: backproject(view) for view in views}
    surfels, index_cloud = geometry._surfels, geometry._index_cloud
    events = []

    def spy_surfels(view, near=None, radius=0.0):
        events.append(("surfels", view.id, len(near)))
        return surfels(view, near, radius)

    def spy_index(cloud, cfg):
        events.append(("index", next(img_id for img_id, full in clouds.items()
                                     if np.array_equal(full.points, cloud.points))))
        return index_cloud(cloud, cfg)

    monkeypatch.setattr(geometry, "_surfels", spy_surfels)
    monkeypatch.setattr(geometry, "_index_cloud", spy_index)
    all_pairs_nso(views, cfg)
    n = len(views)
    built = [event for event in events if event[0] == "surfels"]
    assert events[:len(built)] == built
    bounded, fitted, indexed = built[:n], built[n:], events[len(built):]
    assert [n_partners for *_, n_partners in bounded] == [0] * n
    assert all(n_partners for *_, n_partners in fitted)
    live = sorted(img_id for _, img_id, _ in fitted)
    assert sorted(img_id for _, img_id in indexed) == live
    assert 0 < len(live) < n


def test_normal_out_of_reach_fails_loudly(monkeypatch):
    # A reach test that misses a point some pair matches leaves its normal
    # NaN, and the overlap that reads it is rejected rather than returned.
    near = geometry._near

    def points_never_near(lo, hi, bounds, radius):
        return near(lo, hi, bounds, radius) if lo.ndim == 1 else np.zeros(len(lo), dtype=bool)

    monkeypatch.setattr(geometry, "_near", points_never_near)
    with pytest.raises(ValueError, match="nan"):
        all_pairs_nso(grid_views(2, seed=4, spacing=1.0), NSOConfig(seed=4))


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
    assert geometry._near(*geometry._bounds(a), geometry._bounds(b), cfg.radius)
    rec = nso_from_clouds(a, b, "a", "b", cfg)
    assert rec == nso_from_clouds(a, b, "a", "b", cfg, brute_force=True)
    assert (rec.nso_xy, rec.nso_yx) == (1.0, 1.0)


def test_cull_drops_pair_just_beyond_radius():
    cfg = NSOConfig(radius=0.5, seed=0)
    a, b = slab_cloud(0.0), slab_cloud(0.5 * (1 + 1e-5))
    assert not geometry._near(*geometry._bounds(a), geometry._bounds(b), cfg.radius)
    rec = nso_from_clouds(a, b, "a", "b", cfg)
    assert rec == nso_from_clouds(a, b, "a", "b", cfg, brute_force=True)
    assert (rec.nso_xy, rec.nso_yx) == (0.0, 0.0)


def test_culled_pair_builds_no_tree(monkeypatch):
    built = []
    tree = geometry.cKDTree

    def spy(points):
        built.append(len(points))
        return tree(points)

    monkeypatch.setattr(geometry, "cKDTree", spy)
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
    a, b = (geometry._index_cloud(cloud, cfg) for cloud in clouds)
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
