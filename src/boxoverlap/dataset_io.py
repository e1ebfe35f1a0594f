"""On-disk dataset formats.

A dataset directory holds `scene.json` (camera metadata), one `.dpth` raster
per view and optional CSVs of directed overlap values. Depth rasters are
little-endian float32, row-major, NaN for invalid pixels, preceded by a
16-byte header: magic "DPTH", u32 width, u32 height, u32 reserved.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, CameraView, OverlapRecord, Pose

DEPTH_MAGIC = b"DPTH"


class DatasetFormatError(ValueError):
    """Malformed scene.json, depth raster or overlap CSV."""


def write_depth(path, depth: np.ndarray):
    depth = np.asarray(depth, dtype="<f4")
    h, w = depth.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", DEPTH_MAGIC, w, h, 0))
        fh.write(depth.tobytes())


def read_depth(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise DatasetFormatError(f"truncated depth header in {path}")
        magic, w, h, _ = struct.unpack("<4sIII", header)
        if magic != DEPTH_MAGIC:
            raise DatasetFormatError(f"bad depth magic in {path}")
        data = np.frombuffer(fh.read(4 * w * h), dtype="<f4")
    if data.size != w * h:
        raise DatasetFormatError(f"truncated depth payload in {path}")
    return data.reshape(h, w).astype(np.float64)


_VIEW_FIELDS = (
    "id", "fx", "fy", "cx", "cy", "width", "height",
    "rotation", "translation", "depth_file",
)


def write_scene(dataset_dir, views) -> None:
    """Write scene.json plus one depth raster per view."""
    dataset_dir = Path(dataset_dir)
    dataset_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for view in views:
        depth_file = f"{view.id}.dpth"
        raster = np.where(view.valid_mask, view.depth, np.nan)
        write_depth(dataset_dir / depth_file, raster)
        intr = view.intrinsics
        entries.append({
            "id": view.id,
            "fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
            "width": intr.width, "height": intr.height,
            "rotation": [float(v) for v in view.pose.rotation.reshape(-1)],
            "translation": [float(v) for v in view.pose.translation],
            "depth_file": depth_file,
        })
    scene_path = dataset_dir / "scene.json"
    scene_path.write_text(json.dumps({"views": entries}, indent=2, sort_keys=True))


def read_scene(dataset_dir) -> list[CameraView]:
    dataset_dir = Path(dataset_dir)
    scene_path = dataset_dir / "scene.json"
    try:
        doc = json.loads(scene_path.read_text())
    except FileNotFoundError:
        raise DatasetFormatError(f"missing scene.json in {dataset_dir}")
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"invalid JSON in {scene_path}: {exc}")
    views = []
    seen = set()
    for i, entry in enumerate(doc.get("views", [])):
        for name in _VIEW_FIELDS:
            if name not in entry:
                raise DatasetFormatError(
                    f"view #{i} in {scene_path}: missing field {name!r}"
                )
        if not isinstance(entry["id"], str):
            raise DatasetFormatError(f"view #{i} in {scene_path}: id must be a string")
        if entry["id"] in seen:
            raise DatasetFormatError(f"duplicate view id {entry['id']!r} in {scene_path}")
        seen.add(entry["id"])
        rotation = np.asarray(entry["rotation"], dtype=np.float64)
        if rotation.size != 9:
            raise DatasetFormatError(
                f"view {entry['id']!r}: rotation must hold 9 floats"
            )
        depth = read_depth(dataset_dir / entry["depth_file"])
        mask = np.isfinite(depth) & (depth > 0)
        views.append(CameraView(
            id=entry["id"],
            intrinsics=CameraIntrinsics(
                fx=entry["fx"], fy=entry["fy"], cx=entry["cx"], cy=entry["cy"],
                width=int(entry["width"]), height=int(entry["height"]),
            ),
            pose=Pose(rotation.reshape(3, 3), np.asarray(entry["translation"])),
            depth=np.where(mask, depth, np.nan),
            valid_mask=mask,
        ))
    return views


def write_overlaps(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_x", "id_y", "nso_xy", "nso_yx"])
        for rec in records:
            writer.writerow([rec.id_x, rec.id_y, repr(rec.nso_xy), repr(rec.nso_yx)])


def read_overlaps(path) -> list[OverlapRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id_x", "id_y", "nso_xy", "nso_yx"]:
            raise DatasetFormatError(f"bad overlap CSV header in {path}: {header}")
        for row in reader:
            try:
                id_x, id_y, nso_xy, nso_yx = row
                # OverlapRecord rejects NaN and values outside [0, 1].
                records.append(OverlapRecord(id_x, id_y, float(nso_xy), float(nso_yx)))
            except ValueError as exc:
                raise DatasetFormatError(
                    f"bad overlap CSV row {reader.line_num} in {path}: {row} ({exc})"
                ) from None
    return records


def read_id_pairs(path) -> list[tuple[str, str]]:
    """(id_x, id_y) from the first two columns of each row of a CSV.

    Blank rows and an `id_x` header row are skipped; further columns, such
    as the overlap values of a pairs.csv, are ignored.
    """
    pairs = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0] == "id_x":
                continue
            if len(row) < 2 or not row[0] or not row[1]:
                raise DatasetFormatError(
                    f"bad id-pair CSV row {reader.line_num} in {path}: {row}"
                )
            pairs.append((row[0], row[1]))
    return pairs
