"""Synthetic posed-depth scenes with analytically known overlap structure.

Surfaces are analytic sinusoidal heightfields (a plane is one with no
terms) and every depth value is the exact ray-surface intersection, so pair
generators can state expected overlap intervals in closed form. The world
is scaled so a camera footprint spans a few units and the 0.1 match radius
is ~1% of the scene extent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataset_io
from .geometry import (
    CameraIntrinsics,
    CameraView,
    NSOConfig,
    Pose,
    all_pairs_nso,
)

GENERATOR_VERSION = "1"

# Shared camera geometry: height 10 over the surface with a 6 x 4.5 unit
# footprint at 64 x 48 pixels keeps the ground sample distance under the
# 0.1 match radius.
DEFAULT_HEIGHT = 10.0
DEFAULT_FOCAL = 320.0 / 3.0
DEFAULT_WIDTH = 64
DEFAULT_HEIGHT_PX = 48


class HeightfieldSurface:
    """z = z0 + sum_k amp_k * sin(kx_k * x + ky_k * y + phase_k); with no
    terms, the plane z = z0, its bracket closed at the exact (z0 - oz) / dz."""

    def __init__(self, z0: float = 0.0, terms=()):
        self.z0 = z0
        self.terms = [tuple(map(float, term)) for term in terms]
        self.amplitude = sum(abs(t[0]) for t in self.terms)

    def height(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        z = np.full_like(x, self.z0)
        for amp, kx, ky, phase in self.terms:
            z = z + amp * np.sin(kx * x + ky * y + phase)
        return z

    def min_camera_z(self) -> float:
        return self.z0 + self.amplitude

    def intersect(self, origin, dirs, dtype=np.float64):
        """Each ray's parameter where it meets the surface, NaN where it misses.

        A descending ray bisects its bracket for at most 100 steps, and
        stops once its answer in `dtype` is fixed, so the result rounded to
        `dtype` equals that of all 100 steps.
        """
        # The ray's components, so no step builds an (N, 3) point array.
        ox, oy, oz = origin
        dx, dy, dz = (dirs[..., i].ravel() for i in range(3))
        t = np.full(dz.shape, np.nan)
        # Only descending rays are bisected, on arrays compacted to the rays
        # still active; level and rising rays miss.
        ray = np.flatnonzero(dz < 0)
        dx, dy, dz = dx[ray], dy[ray], dz[ray]
        # The float32 cast of a grazing ray's huge bracket overflows to inf.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lo = (self.z0 + self.amplitude - oz) / dz
            hi = (self.z0 - self.amplitude - oz) / dz
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                go_down = oz + mid * dz > self.height(ox + mid * dx, oy + mid * dy)
                new_lo, new_hi = np.where(go_down, mid, lo), np.where(go_down, hi, mid)
                # Each bracket lies inside the one before, so the last t lies
                # in this one. A ray is done when its ends round to one
                # `dtype` value past 0 (rounding is monotone, so t rounds to
                # it too), or when the step left its bracket unchanged (every
                # later step gets the same inputs). On the default script a
                # float64 ray takes about 50 steps, a float32 one about 21.
                done = ((new_lo == lo) & (new_hi == hi)) | (
                    (new_lo.astype(dtype, copy=False) == new_hi.astype(dtype, copy=False))
                    & (new_lo > 0))
                t[ray[done]] = 0.5 * (new_lo[done] + new_hi[done])
                active = ~done
                ray, lo, hi = ray[active], new_lo[active], new_hi[active]
                dx, dy, dz = dx[active], dy[active], dz[active]
                if not ray.size:
                    break
            t[ray] = 0.5 * (lo + hi)
            t = t.reshape(dirs.shape[:-1])
            return np.where(t > 0, t, np.nan)


@dataclass(frozen=True)
class Placement:
    """One camera: position, look-at target, focal length in pixels."""

    id: str
    position: tuple
    target: tuple
    focal: float = DEFAULT_FOCAL
    width: int = DEFAULT_WIDTH
    height: int = DEFAULT_HEIGHT_PX


@dataclass
class CameraScript:
    placements: list = field(default_factory=list)
    # Generator-assigned pair relations: (id_x, id_y, relation, param).
    labeled_pairs: list = field(default_factory=list)


@dataclass(frozen=True)
class ExpectedOverlap:
    """Closed interval bounds for the two directed overlap values."""

    xy: tuple
    yx: tuple


def look_at_pose(position, target) -> Pose:
    position = np.asarray(position, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - position
    norm = np.linalg.norm(forward)
    if norm == 0:
        raise ValueError("camera position equals its look-at target")
    forward = forward / norm
    hint = np.array([0.0, 1.0, 0.0])
    if abs(forward @ hint) > 0.999:
        hint = np.array([1.0, 0.0, 0.0])
    right = np.cross(hint, forward)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.column_stack([right, down, forward])
    return Pose(rotation, position)


def render_depth(surface, placement: Placement) -> CameraView:
    """Exact analytic depth render; NaN where the pixel ray misses."""
    return _render(surface, placement, np.float64)


def _render(surface, placement: Placement, dtype) -> CameraView:
    """The view of one placement, its exact depth rounded to `dtype`."""
    if placement.position[2] <= surface.min_camera_z():
        raise ValueError(
            f"camera {placement.id!r} is behind or inside the surface"
        )
    pose = look_at_pose(placement.position, placement.target)
    intr = CameraIntrinsics(
        fx=placement.focal, fy=placement.focal,
        cx=placement.width / 2.0, cy=placement.height / 2.0,
        width=placement.width, height=placement.height,
    )
    cols, rows = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
    dirs_cam = np.stack([
        (cols - intr.cx) / intr.fx,
        (rows - intr.cy) / intr.fy,
        np.ones_like(cols, dtype=np.float64),
    ], axis=-1)
    dirs_world = dirs_cam @ pose.rotation.T
    # The camera-frame ray has unit z, so the ray parameter is the z-depth.
    t = surface.intersect(pose.translation, dirs_world, dtype)
    depth = t.astype(dtype, copy=False).astype(np.float64, copy=False)
    return CameraView(id=placement.id, intrinsics=intr, pose=pose, depth=depth)


def _down_camera(view_id, target_xy, height, focal=DEFAULT_FOCAL):
    tx, ty = target_xy
    return Placement(
        id=view_id,
        position=(tx, ty, height),
        target=(tx, ty, 0.0),
        focal=focal,
    )


def _zoom_cameras(ids, center, factor):
    """A downward camera and one in its place with `factor` times its focal length."""
    return (_down_camera(ids[0], center, DEFAULT_HEIGHT),
            _down_camera(ids[1], center, DEFAULT_HEIGHT, focal=DEFAULT_FOCAL * factor))


def _oblique_cameras(ids, center):
    """A downward camera, and one tilted 60 degrees from vertical towards a
    target 1.8 along x from the first camera's."""
    angle = np.deg2rad(60.0)
    target = (center[0] + 1.8, center[1], 0.0)
    position = (target[0] + DEFAULT_HEIGHT * np.sin(angle), center[1],
                DEFAULT_HEIGHT * np.cos(angle))
    return (_down_camera(ids[0], center, DEFAULT_HEIGHT),
            Placement(id=ids[1], position=position, target=target))


def make_pair(pattern: str, params: dict, seed: int):
    """Two views of the plane z = 0, ids "x" and "y", plus the analytic
    expected overlap interval.

    Patterns: "zoom" (params: factor > 1), "clone" (params: jitter >= 0),
    "oblique".
    """
    surface = HeightfieldSurface(0.0)
    ids, center = ("x", "y"), (0.0, 0.0)

    if pattern == "zoom":
        f = float(params["factor"])
        if f <= 1:
            raise ValueError("zoom factor must be > 1")
        view_x, view_y = (render_depth(surface, p) for p in _zoom_cameras(ids, center, f))
        # Footprint area ratio 1/f^2 plus a match-radius boundary ring.
        base = 1.0 / f**2
        return view_x, view_y, ExpectedOverlap(
            xy=(max(0.0, base - 0.05), base + 0.05), yx=(0.98, 1.0)
        )

    if pattern == "clone":
        jitter = float(params.get("jitter", 0.0))
        view_x = render_depth(surface, _down_camera(ids[0], center, DEFAULT_HEIGHT))
        rng = np.random.default_rng(seed)
        off = rng.normal(0.0, jitter, size=3) if jitter > 0 else np.zeros(3)
        placement_y = Placement(
            id=ids[1],
            position=(off[0], off[1], DEFAULT_HEIGHT + off[2]),
            target=(off[0], off[1], 0.0),
        )
        view_y = render_depth(surface, placement_y)
        lo = 1.0 if jitter == 0 else 0.8
        return view_x, view_y, ExpectedOverlap(xy=(lo, 1.0), yx=(lo, 1.0))

    if pattern == "oblique":
        view_x, view_y = (render_depth(surface, p) for p in _oblique_cameras(ids, center))
        # Slanted view of a laterally shifted target: moderate overlap both
        # ways, concentration held inside the oblique band of the classifier.
        return view_x, view_y, ExpectedOverlap(xy=(0.60, 0.90), yx=(0.28, 0.50))

    raise ValueError(f"unknown pair pattern: {pattern}")


def grid_script(n: int, seed: int = 0, spacing: float = 1.0) -> CameraScript:
    """n x n downward-looking cameras with jittered heights and targets."""
    if n < 1:
        raise ValueError("grid size must be >= 1")
    rng = np.random.default_rng(seed)
    placements = []
    half = (n - 1) / 2.0
    for i in range(n):
        for j in range(n):
            x = (i - half) * spacing + rng.normal(0.0, 0.1)
            y = (j - half) * spacing + rng.normal(0.0, 0.1)
            h = DEFAULT_HEIGHT + rng.normal(0.0, 0.5)
            tx = x + rng.normal(0.0, 0.2)
            ty = y + rng.normal(0.0, 0.2)
            placements.append(Placement(
                id=f"g{i * n + j:03d}",
                position=(x, y, h),
                target=(tx, ty, 0.0),
            ))
    return CameraScript(placements=placements)


def default_surface(seed: int = 7) -> HeightfieldSurface:
    """Gentle sinusoidal heightfield; amplitude capped well under 5% of extent."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(3):
        amp = 0.08 + 0.04 * rng.random()
        kx, ky = rng.uniform(0.6, 1.4, size=2)
        phase = rng.uniform(0.0, 2 * np.pi)
        terms.append((amp, kx, ky, phase))
    return HeightfieldSurface(0.0, terms)


def default_script(seed: int = 7) -> CameraScript:
    """Acceptance-scale script: grid(8) + 8 zoom pairs + 8 oblique pairs."""
    script = grid_script(8, seed=seed)
    rng = np.random.default_rng(seed + 1)
    zoom_factors = [1.5, 1.5, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
    for i, f in enumerate(zoom_factors):
        cx, cy = rng.uniform(-2.0, 2.0, size=2)
        ids = (f"z{i}a", f"z{i}b")
        script.placements.extend(_zoom_cameras(ids, (cx, cy), f))
        script.labeled_pairs.append((ids[0], ids[1], "zoom-in", f))
    for i in range(8):
        cx, cy = rng.uniform(-2.0, 2.0, size=2)
        ids = (f"o{i}a", f"o{i}b")
        script.placements.extend(_oblique_cameras(ids, (cx, cy)))
        script.labeled_pairs.append((ids[0], ids[1], "oblique-or-crop-out", 60.0))
    return script


@dataclass
class SyntheticScene:
    views: list


def render_script(surface, script: CameraScript, seed: int) -> SyntheticScene:
    """Each placement's view, its depth rounded to storage (float32) precision.

    Overlaps recomputed from a written dataset then match the ones computed
    at generation time bit for bit. Rendering draws no random numbers, so
    the scene does not depend on `seed`.
    """
    views = [_render(surface, p, np.float32) for p in script.placements]
    for view in views:
        if view.valid_mask.mean() < 0.5:
            raise ValueError(f"view {view.id!r} sees under 50% valid pixels")
    return SyntheticScene(views=views)


def generate_dataset(surface, script: CameraScript, out_dir, seed: int,
                     nso_cfg: NSOConfig, oracle: bool = False,
                     threads: int = 1) -> Path:
    """Render, compute all-pairs overlap and write the dataset directory."""
    if len(script.placements) < 2:
        raise ValueError("need at least 2 cameras")
    out_dir = Path(out_dir)
    scene = render_script(surface, script, seed)
    dataset_io.write_scene(out_dir, scene.views)
    records = all_pairs_nso(scene.views, nso_cfg, oracle=oracle, threads=threads)
    dataset_io.write_overlaps(out_dir / "pairs.csv", records)
    meta = {
        "seed": seed,
        "generator_version": GENERATOR_VERSION,
        "labeled_pairs": [
            {"id_x": a, "id_y": b, "relation": rel, "param": param}
            for a, b, rel, param in script.labeled_pairs
        ],
    }
    (out_dir / "relations.json").write_text(json.dumps(meta, indent=2, sort_keys=True),
                                            encoding="utf-8")
    return out_dir
