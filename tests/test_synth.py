import hashlib
from pathlib import Path

import numpy as np
import pytest

from boxoverlap import dataset_io
from boxoverlap.geometry import NSOConfig, backproject, compute_nso, nso_from_clouds
from boxoverlap.synth import (
    DEFAULT_FOCAL,
    DEFAULT_HEIGHT,
    CameraScript,
    HeightfieldSurface,
    Placement,
    PlaneSurface,
    SphereSurface,
    default_script,
    default_surface,
    generate_dataset,
    grid_script,
    make_pair,
    render_depth,
    render_script,
)


def tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


# -- rendering -----------------------------------------------------------------


def test_plane_principal_depth_exact():
    view = render_depth(PlaneSurface(0.0), Placement(
        "p", position=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0)))
    h, w = view.depth.shape
    cx, cy = view.intrinsics.cx, view.intrinsics.cy
    assert view.depth[int(cy), int(cx)] == 2.0


def test_plane_depth_matches_analytic_everywhere():
    view = render_depth(PlaneSurface(0.0), Placement(
        "p", position=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0)))
    # Every ray from height 2 onto z=0 has z-depth exactly 2; the Euclidean
    # ray length to the corner is 2/cos(theta).
    assert np.allclose(view.depth[view.valid_mask], 2.0, rtol=1e-9)
    cloud = backproject(view)
    # Pixel (0, 0) sees the plane, so its surfel is row 0 of the cloud.
    ray = cloud.points[0] - view.pose.translation
    cos_theta = 2.0 / np.linalg.norm(ray)
    assert np.linalg.norm(ray) == pytest.approx(2.0 / cos_theta, rel=1e-9)
    intr = view.intrinsics
    direction = np.array([(0 - intr.cx) / intr.fx, (0 - intr.cy) / intr.fy, 1.0])
    assert cos_theta == pytest.approx(1.0 / np.linalg.norm(direction), rel=1e-9)


def test_sphere_principal_depth():
    sphere = SphereSurface(center=(0.0, 0.0, 0.0), radius=2.0)
    view = render_depth(sphere, Placement(
        "s", position=(0.0, 0.0, 10.0), target=(0.0, 0.0, 0.0)))
    cy, cx = int(view.intrinsics.cy), int(view.intrinsics.cx)
    assert view.depth[cy, cx] == pytest.approx(10.0 - 2.0, rel=1e-12)


def test_heightfield_depth_matches_analytic():
    surface = default_surface(seed=7)
    view = render_depth(surface, Placement(
        "h", position=(0.3, -0.2, 10.0), target=(0.3, -0.2, 0.0)))
    cloud_pts = []
    intr = view.intrinsics
    cols, rows = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
    dirs = np.stack([(cols - intr.cx) / intr.fx,
                     (rows - intr.cy) / intr.fy,
                     np.ones_like(cols, float)], axis=-1)
    pts = view.pose.translation + view.depth[..., None] * (dirs @ view.pose.rotation.T)
    residual = pts[..., 2] - surface.height(pts[..., 0], pts[..., 1])
    assert np.nanmax(np.abs(residual)) < 1e-9


def test_render_camera_inside_surface():
    with pytest.raises(ValueError, match="behind or inside"):
        render_depth(PlaneSurface(5.0), Placement(
            "bad", position=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0)))


def test_render_script_rejects_mostly_empty_views():
    # A camera aimed upward away from the plane sees almost nothing.
    script = CameraScript(placements=[Placement(
        "sky", position=(0.0, 0.0, 5.0), target=(0.0, 50.0, 100.0))])
    with pytest.raises(ValueError, match="50%"):
        render_script(PlaneSurface(0.0), script, seed=0)


def test_render_script_quantizes_to_storage_precision():
    script = grid_script(2, seed=0)
    scene = render_script(PlaneSurface(0.0), script, seed=0)
    for view in scene.views:
        d = view.depth[view.valid_mask]
        assert np.array_equal(d, d.astype(np.float32).astype(np.float64))


# A 3x3 grid, a 2x zoom and a 60-degree oblique view of default_surface(5).
PINNED_PLACEMENTS = grid_script(3, seed=5).placements + [
    Placement("zoom", position=(0.4, -0.3, DEFAULT_HEIGHT), target=(0.4, -0.3, 0.0),
              focal=DEFAULT_FOCAL * 2.0),
    Placement("oblique", position=(1.8 + DEFAULT_HEIGHT * np.sin(np.deg2rad(60.0)), 0.0,
                                   DEFAULT_HEIGHT * np.cos(np.deg2rad(60.0))),
              target=(1.8, 0.0, 0.0)),
]


def bisect_100_steps(surface, origin, dirs):
    """The heightfield intersection by all 100 bisection steps, with the
    height test on full (N, 3) ray points."""
    dz = dirs[..., 2]
    descending = dz < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(descending, (surface.z0 + surface.amplitude - origin[2]) / dz, np.nan)
        hi = np.where(descending, (surface.z0 - surface.amplitude - origin[2]) / dz, np.nan)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        pt = origin + mid[..., None] * dirs
        with np.errstate(invalid="ignore"):
            go_down = pt[..., 2] - surface.height(pt[..., 0], pt[..., 1]) > 0
        lo = np.where(go_down, mid, lo)
        hi = np.where(go_down, hi, mid)
    t = 0.5 * (lo + hi)
    return np.where(descending & (t > 0), t, np.nan)


def test_heightfield_early_exit_matches_100_steps():
    surface = default_surface(seed=7)
    origin = np.array([0.3, -0.2, DEFAULT_HEIGHT])
    rng = np.random.default_rng(0)
    steep = np.column_stack([rng.normal(0.0, 0.5, (500, 2)), -rng.uniform(0.2, 1.0, 500)])
    # Rays within a millidegree of the horizon, whose brackets span 1e4-1e7.
    grazing = np.column_stack([rng.normal(0.0, 1.0, (200, 2)),
                               -rng.uniform(1e-7, 1e-5, 200)])
    # Level and rising rays miss: NaN brackets.
    missing = np.column_stack([rng.normal(0.0, 1.0, (100, 2)),
                               np.r_[np.zeros(50), rng.uniform(0.0, 1.0, 50)]])
    # One ray at a time too, so no other ray's bracket keeps the loop going.
    for dirs in (steep, grazing, missing, *steep[:10, None], *grazing[:10, None]):
        got = surface.intersect(origin, dirs)
        assert np.array_equal(got, bisect_100_steps(surface, origin, dirs), equal_nan=True)
    assert np.isnan(surface.intersect(origin, missing)).all()
    assert np.isfinite(surface.intersect(origin, grazing)).all()

    # Default-surface views, straight down and oblique, in their (h, w, 3) layout.
    for placement in PINNED_PLACEMENTS[-2:]:
        view = render_depth(surface, placement)
        intr, pose = view.intrinsics, view.pose
        cols, rows = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
        dirs = np.stack([(cols - intr.cx) / intr.fx, (rows - intr.cy) / intr.fy,
                         np.ones(cols.shape)], axis=-1) @ pose.rotation.T
        assert np.array_equal(view.depth, bisect_100_steps(surface, pose.translation, dirs),
                              equal_nan=True)


def test_heightfield_stops_before_100_steps(monkeypatch):
    surface = default_surface(seed=7)
    height = surface.height
    calls = []

    def counted(x, y):
        calls.append(1)
        return height(x, y)

    monkeypatch.setattr(surface, "height", counted)
    render_depth(surface, grid_script(1, seed=0).placements[0])
    # float64 runs out of bits after about 50 halvings of the bracket.
    assert 0 < len(calls) < 100
    # A missed ray's NaN bracket counts as unchanged.
    calls.clear()
    dirs = np.array([[0.1, 0.2, -1.0], [0.3, 0.0, 0.0], [0.0, 0.1, 1.0]])
    surface.intersect(np.array([0.0, 0.0, DEFAULT_HEIGHT]), dirs)
    assert 0 < len(calls) < 100


def test_render_bytes_pinned():
    # The depth bytes as all 100 bisection steps render them; a render
    # change that moves any depth bit fails here.
    scene = render_script(default_surface(5), CameraScript(PINNED_PLACEMENTS), seed=5)
    digest = hashlib.sha256()
    for view in scene.views:
        digest.update(view.depth.tobytes())
    assert digest.hexdigest() == (
        "5ac163914dfeb2293a6d99b44396758694104fd08e7d10c2743edb47d325966a")


# -- pair generators -----------------------------------------------------------


def test_clone_pair_exact():
    vx, vy, expected = make_pair("clone", {"jitter": 0.0}, seed=0)
    rec = compute_nso(vx, vy, NSOConfig(seed=0))
    assert rec.nso_xy == 1.0 and rec.nso_yx == 1.0
    assert expected.contains(rec)


def test_disjoint_pair_zero():
    vx, vy, expected = make_pair("disjoint", {}, seed=0)
    rec = compute_nso(vx, vy, NSOConfig(seed=0))
    assert rec.nso_xy == 0.0 and rec.nso_yx == 0.0
    assert expected.contains(rec)


def test_zoom_pair_quarter():
    vx, vy, expected = make_pair("zoom", {"factor": 2.0}, seed=0)
    rec = compute_nso(vx, vy, NSOConfig(seed=0))
    assert expected.contains(rec)
    assert rec.nso_xy == pytest.approx(0.25, abs=0.05)
    assert rec.nso_yx >= 0.98


def test_zoom_factor_validation():
    with pytest.raises(ValueError, match="factor"):
        make_pair("zoom", {"factor": 1.0}, seed=0)


def test_unknown_pattern():
    with pytest.raises(ValueError, match="unknown pair pattern"):
        make_pair("spiral", {}, seed=0)


@pytest.mark.parametrize("pattern,params", [
    ("zoom", {"factor": 2.0}),
    ("zoom", {"factor": 3.0}),
    ("clone", {"jitter": 0.05}),
    ("oblique", {}),
    ("disjoint", {}),
])
def test_expected_intervals_contain_computed_nso(pattern, params):
    for seed in range(20):
        vx, vy, expected = make_pair(pattern, params, seed=seed)
        rec = compute_nso(vx, vy, NSOConfig(seed=seed))
        assert expected.contains(rec), (pattern, seed, rec)


def test_oblique_weighting_bites():
    # On an exact plane both views recover the identical normal, so the
    # cosine weight needs a curved surface to fall below 1.
    vx, vy, _ = make_pair("oblique", {"angle_deg": 60.0}, seed=1,
                          surface=default_surface(seed=7))
    cx, cy = backproject(vx), backproject(vy)
    unweighted, weighted = (
        nso_from_clouds(cx, cy, "x", "y", NSOConfig(n_sub=len(cx), weighted=w)).nso_xy
        for w in (False, True))
    assert weighted < unweighted


# -- scripts and datasets ------------------------------------------------------


def test_grid_script_shape():
    script = grid_script(3, seed=0)
    assert len(script.placements) == 9
    assert len({p.id for p in script.placements}) == 9


def test_default_script_placements_pinned():
    # The zoom and oblique cameras come from the helpers make_pair also
    # uses; moving any placement value or type changes this digest. The
    # repr is numpy 2's, which spells out np.float64.
    digest = hashlib.sha256(repr(default_script(7).placements).encode()).hexdigest()
    assert digest == "c07608bd734ea830251a9f5a76110dbc54d589f3f299b350c40f14e3760c73fe"


def test_default_script_composition():
    script = default_script(seed=7)
    assert len(script.placements) == 64 + 16 + 16
    assert len(script.labeled_pairs) == 16
    relations = {rel for _, _, rel, _ in script.labeled_pairs}
    assert relations == {"zoom-in", "oblique-or-crop-out"}


def test_generate_dataset_grid3(tmp_path):
    out = generate_dataset(PlaneSurface(0.0), grid_script(3, seed=1),
                           tmp_path / "ds", seed=1)
    views = dataset_io.read_scene(out)
    assert len(views) == 9
    records = dataset_io.read_overlaps(out / "pairs.csv")
    assert len(records) == 36  # 72 directed values
    for rec in records:
        assert 0.0 <= rec.nso_xy <= 1.0
        assert 0.0 <= rec.nso_yx <= 1.0


def test_generate_dataset_deterministic(tmp_path):
    a = generate_dataset(PlaneSurface(0.0), grid_script(2, seed=4),
                         tmp_path / "a", seed=4)
    b = generate_dataset(PlaneSurface(0.0), grid_script(2, seed=4),
                         tmp_path / "b", seed=4)
    assert tree_digest(Path(a)) == tree_digest(Path(b))


def test_generate_dataset_reproducible_from_disk(tmp_path):
    from boxoverlap.geometry import all_pairs_nso

    out = generate_dataset(PlaneSurface(0.0), grid_script(2, seed=9),
                           tmp_path / "ds", seed=9)
    views = dataset_io.read_scene(out)
    recomputed = all_pairs_nso(views, NSOConfig(seed=9))
    assert recomputed == dataset_io.read_overlaps(out / "pairs.csv")


def test_generate_dataset_requires_two_cameras(tmp_path):
    with pytest.raises(ValueError, match="2 cameras"):
        generate_dataset(PlaneSurface(0.0), grid_script(1, seed=0),
                         tmp_path / "ds", seed=0)


def test_default_surface_amplitude_capped():
    surface = default_surface(seed=7)
    # Under 5% of the ~10-unit scene extent.
    assert surface.amplitude < 0.5
