import hashlib
from pathlib import Path

import numpy as np
import pytest

from boxoverlap import dataset_io
from boxoverlap.geometry import NSOConfig, backproject, compute_nso, nso_from_clouds
from boxoverlap.synth import (
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
