import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxoverlap import dataset_io
from boxoverlap.geometry import NSOConfig, backproject, compute_nso, nso_from_clouds
from boxoverlap.synth import (
    DEFAULT_FOCAL,
    DEFAULT_HEIGHT,
    CameraScript,
    HeightfieldSurface,
    Placement,
    default_script,
    default_surface,
    generate_dataset,
    grid_script,
    look_at_pose,
    make_pair,
    render_depth,
    render_script,
)
from synth_fixtures import SphereSurface, contains


def tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


# -- rendering -----------------------------------------------------------------


def test_plane_principal_depth_exact():
    view = render_depth(HeightfieldSurface(0.0), Placement(
        "p", position=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0)))
    h, w = view.depth.shape
    cx, cy = view.intrinsics.cx, view.intrinsics.cy
    assert view.depth[int(cy), int(cx)] == 2.0


def test_plane_depth_matches_analytic_everywhere():
    view = render_depth(HeightfieldSurface(0.0), Placement(
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
        render_depth(HeightfieldSurface(5.0), Placement(
            "bad", position=(0.0, 0.0, 2.0), target=(0.0, 0.0, 0.0)))


def view_digest(views):
    """sha256 over each view's id, intrinsics, pose and depth bytes."""
    digest = hashlib.sha256()
    for view in views:
        intr = view.intrinsics
        digest.update(view.id.encode())
        digest.update(np.array([intr.fx, intr.fy, intr.cx, intr.cy,
                                intr.width, intr.height], np.float64).tobytes())
        digest.update(np.asarray(view.pose.rotation, np.float64).tobytes())
        digest.update(np.asarray(view.pose.translation, np.float64).tobytes())
        digest.update(view.depth.tobytes())
    return digest.hexdigest()


def flat_placements():
    rng = np.random.default_rng(3)
    placements = []
    for i in range(20):
        x, y, tx, ty = rng.uniform(-3.0, 3.0, size=4)
        placements.append(Placement(f"f{i}", position=(x, y, rng.uniform(7.0, 12.0)),
                                    target=(tx, ty, 0.0)))
    return placements


@pytest.mark.parametrize("z0,digest", [
    (0.0, "11cdce7dca9b5fbb830b20f71602d12d66dc446524bea25b0990938887ac987f"),
    (5.0, "0493bbee2968494599458b0291abc6e290e61fc85e916e5d75f944f979da2831"),
], ids=["z0", "z5"])
def test_flat_heightfield_bytes_pinned(z0, digest):
    # A heightfield with no terms is the plane z = z0: its bisection bracket
    # starts closed at t = (z0 - oz) / dz, the plane's exact intersection,
    # and these are the bytes that closed form renders.
    views = [render_depth(HeightfieldSurface(z0), p) for p in flat_placements()]
    assert view_digest(views) == digest


def test_render_script_rejects_mostly_empty_views():
    # A camera aimed upward away from the plane sees almost nothing.
    script = CameraScript(placements=[Placement(
        "sky", position=(0.0, 0.0, 5.0), target=(0.0, 50.0, 100.0))])
    with pytest.raises(ValueError, match="50%"):
        render_script(HeightfieldSurface(0.0), script, seed=0)


def test_render_script_quantizes_to_storage_precision():
    script = grid_script(2, seed=0)
    scene = render_script(HeightfieldSurface(0.0), script, seed=0)
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
    # A missed ray is never bisected, so it keeps no step going.
    calls.clear()
    dirs = np.array([[0.1, 0.2, -1.0], [0.3, 0.0, 0.0], [0.0, 0.1, 1.0]])
    surface.intersect(np.array([0.0, 0.0, DEFAULT_HEIGHT]), dirs)
    assert 0 < len(calls) < 100


@st.composite
def midpoint_rays(draw):
    """A surface, a camera and rays whose depth lies within a few float64
    ulps of a float32 rounding midpoint: straight down onto a term of
    amplitude 1e-9 that is 0 below the camera, and tilted by under 1e-6."""
    near = np.float32(draw(st.floats(1.0, 20.0, width=32)))
    midpoint = (np.float64(near) + np.float64(np.nextafter(near, np.float32(np.inf)))) / 2
    oz = midpoint + draw(st.integers(-4, 4)) * np.spacing(midpoint)
    kx, ky = draw(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
    surface = HeightfieldSurface(0.0, [(1e-9, kx, ky, 0.0)])
    tilts = draw(st.lists(st.tuples(st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6)),
                          max_size=8))
    dirs = np.array([(0.0, 0.0, -1.0)] + [(tx, ty, -1.0) for tx, ty in tilts])
    return surface, np.array([0.0, 0.0, oz]), dirs


@st.composite
def bench_rays(draw):
    """Steep, grazing and missing rays from a camera over a default surface,
    or inside the band its terms span."""
    surface = default_surface(draw(st.integers(0, 50)))
    ox, oy = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    oz = surface.min_camera_z() + draw(st.floats(-0.2, 15.0))
    lateral = st.floats(-2.0, 2.0)
    dz = st.one_of(st.floats(-1.0, -0.2),       # steep
                   st.floats(-1e-5, -1e-7),     # grazing: brackets of 1e4-1e7
                   st.floats(0.0, 1.0))         # level or rising: misses
    dirs = draw(st.lists(st.tuples(lateral, lateral, dz), min_size=1, max_size=40))
    return surface, np.array([ox, oy, oz]), np.array(dirs)


@given(st.one_of(midpoint_rays(), bench_rays()))
@settings(max_examples=150, deadline=None)
def test_float32_intersect_rounds_as_100_steps(rays):
    surface, origin, dirs = rays
    # A subnormal dz overflows the reference's bracket, which it does not
    # expect; intersect itself must stay silent.
    with np.errstate(over="ignore"):
        want = bisect_100_steps(surface, origin, dirs)
    got = surface.intersect(origin, dirs, np.float32)
    assert np.array_equal(got.astype(np.float32), want.astype(np.float32), equal_nan=True)
    # Each ray alone too, so no other ray keeps it going.
    for i in range(len(dirs)):
        one = surface.intersect(origin, dirs[i:i + 1], np.float32)
        assert np.array_equal(one.astype(np.float32), want[i:i + 1].astype(np.float32),
                              equal_nan=True)
    assert np.array_equal(surface.intersect(origin, dirs), want, equal_nan=True)


def test_float32_render_steps_per_pixel(monkeypatch):
    surface = default_surface(seed=7)
    height = surface.height
    ray_steps = []

    def counted(x, y):
        ray_steps.append(np.size(x))
        return height(x, y)

    monkeypatch.setattr(surface, "height", counted)
    placement = default_script(seed=7).placements[0]
    render_script(surface, CameraScript([placement]), seed=7)
    # About 21 on the default script, against about 50 to float64's resolution.
    assert 0 < sum(ray_steps) / (placement.width * placement.height) < 30


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
    assert contains(expected, rec)


def test_zoom_pair_quarter():
    vx, vy, expected = make_pair("zoom", {"factor": 2.0}, seed=0)
    rec = compute_nso(vx, vy, NSOConfig(seed=0))
    assert contains(expected, rec)
    assert rec.nso_xy == pytest.approx(0.25, abs=0.05)
    assert rec.nso_yx >= 0.98


@pytest.mark.parametrize("pattern,params,digest", [
    ("clone", {"jitter": 0.0},
     "6a0657ce5536b05d3b9a6e12352f56321702202c74f2a6c614e0240be3573103"),
    ("clone", {"jitter": 0.05},
     "a68810408ea300e532d424153c040ab0b30c03b18a9d6ebf6d2eb9abb9337c9f"),
    ("zoom", {"factor": 2.0},
     "4688a175ac968f58d3db85b01a354a55034febb8928a8cb84eccea55b01fffdf"),
    ("zoom", {"factor": 4.0},
     "c211cf8d720938e405827b850b8ef411bef668df3ee6c2df855adb0da409139e"),
    ("oblique", {},
     "e7e5dfedc6c58dc0aec9cadb0481365834701b85e0c0b3bfc8381212072083f2"),
], ids=["clone-0", "clone-0.05", "zoom-2", "zoom-4", "oblique"])
def test_make_pair_bytes_pinned(pattern, params, digest):
    # Both views of seeds 0-2; a change to the pair cameras or to the
    # surface they are rendered on fails here.
    views = [view for seed in range(3) for view in make_pair(pattern, params, seed=seed)[:2]]
    assert view_digest(views) == digest


def test_look_at_pose_along_the_up_hint():
    # Looking along +y, the y up-hint is swapped for x: right is z and down
    # is x, a proper rotation.
    pose = look_at_pose((1.0, 2.0, 3.0), (1.0, 7.0, 3.0))
    assert np.array_equal(pose.rotation, np.column_stack([(0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                                          (0.0, 1.0, 0.0)]))
    assert np.allclose(pose.rotation.T @ pose.rotation, np.eye(3))
    assert np.linalg.det(pose.rotation) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="equals its look-at target"):
        look_at_pose((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


def test_grid_script_rejects_empty_grid():
    with pytest.raises(ValueError, match="grid size must be >= 1"):
        grid_script(0)


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
])
def test_expected_intervals_contain_computed_nso(pattern, params):
    for seed in range(20):
        vx, vy, expected = make_pair(pattern, params, seed=seed)
        rec = compute_nso(vx, vy, NSOConfig(seed=seed))
        assert contains(expected, rec), (pattern, seed, rec)


def test_oblique_weighting_bites():
    # On an exact plane both views recover the identical normal, so the
    # cosine weight needs a curved surface to fall below 1: the first
    # oblique pair of the default script, on the default surface.
    script = default_script(seed=7)
    x, y, _, _ = next(pair for pair in script.labeled_pairs
                      if pair[2] == "oblique-or-crop-out")
    pair = [p for p in script.placements if p.id in (x, y)]
    vx, vy = render_script(default_surface(seed=7), CameraScript(pair), seed=7).views
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
    out = generate_dataset(HeightfieldSurface(0.0), grid_script(3, seed=1),
                           tmp_path / "ds", seed=1, nso_cfg=NSOConfig(seed=1))
    views = dataset_io.read_scene(out)
    assert len(views) == 9
    records = dataset_io.read_overlaps(out / "pairs.csv")
    assert len(records) == 36  # 72 directed values
    for rec in records:
        assert 0.0 <= rec.nso_xy <= 1.0
        assert 0.0 <= rec.nso_yx <= 1.0


def test_generate_dataset_deterministic(tmp_path):
    a = generate_dataset(HeightfieldSurface(0.0), grid_script(2, seed=4),
                         tmp_path / "a", seed=4, nso_cfg=NSOConfig(seed=4))
    b = generate_dataset(HeightfieldSurface(0.0), grid_script(2, seed=4),
                         tmp_path / "b", seed=4, nso_cfg=NSOConfig(seed=4))
    assert tree_digest(Path(a)) == tree_digest(Path(b))


def test_generate_dataset_reproducible_from_disk(tmp_path):
    from boxoverlap.geometry import all_pairs_nso

    out = generate_dataset(HeightfieldSurface(0.0), grid_script(2, seed=9),
                           tmp_path / "ds", seed=9, nso_cfg=NSOConfig(seed=9))
    views = dataset_io.read_scene(out)
    recomputed = all_pairs_nso(views, NSOConfig(seed=9))
    assert recomputed == dataset_io.read_overlaps(out / "pairs.csv")


def test_generate_dataset_requires_two_cameras(tmp_path):
    with pytest.raises(ValueError, match="2 cameras"):
        generate_dataset(HeightfieldSurface(0.0), grid_script(1, seed=0),
                         tmp_path / "ds", seed=0, nso_cfg=NSOConfig(seed=0))


def test_default_surface_amplitude_capped():
    surface = default_surface(seed=7)
    # Under 5% of the ~10-unit scene extent.
    assert surface.amplitude < 0.5
