"""On-disk dataset formats.

A dataset directory holds `scene.json` (camera metadata), one `.dpth` raster
per view and optional CSVs of directed overlap values. Depth rasters are
little-endian float32, row-major, NaN for invalid pixels, preceded by a
16-byte header: magic "DPTH", u32 width, u32 height, u32 reserved.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, CameraView, OverlapRecord, Pose

DEPTH_MAGIC = b"DPTH"


class DatasetFormatError(ValueError):
    """Malformed scene.json, depth raster, overlap or id-pair CSV, or checkpoint."""


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
        # Checked before the read, which would allocate what the header asks.
        if os.fstat(fh.fileno()).st_size - 16 < 4 * w * h:
            raise DatasetFormatError(
                f"truncated depth payload in {path}: {w}x{h} needs {4 * w * h} bytes")
        data = np.frombuffer(fh.read(4 * w * h), dtype="<f4")
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
        write_depth(dataset_dir / depth_file, view.depth)
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
    scene_path.write_text(json.dumps({"views": entries}, indent=2, sort_keys=True),
                          encoding="utf-8")


def read_scene(dataset_dir) -> list[CameraView]:
    dataset_dir = Path(dataset_dir)
    scene_path = dataset_dir / "scene.json"
    try:
        doc = json.loads(scene_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetFormatError(f"missing scene.json in {dataset_dir}")
    # Bytes that do not decode, text that is not JSON, or JSON nested too deep.
    except (ValueError, RecursionError) as exc:
        raise DatasetFormatError(f"invalid JSON in {scene_path}: {exc}")
    entries = doc.get("views", []) if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise DatasetFormatError(f"{scene_path} must be an object with a list of views")
    if not entries:
        raise DatasetFormatError(f"{scene_path} holds no views")
    views = []
    seen = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DatasetFormatError(f"view #{i} in {scene_path}: not an object")
        for name in _VIEW_FIELDS:
            if name not in entry:
                raise DatasetFormatError(
                    f"view #{i} in {scene_path}: missing field {name!r}"
                )
        if not isinstance(entry["id"], str):
            raise DatasetFormatError(f"view #{i} in {scene_path}: id must be a string")
        if not entry["id"]:
            raise DatasetFormatError(f"view #{i} in {scene_path}: id must not be empty")
        if entry["id"] in seen:
            raise DatasetFormatError(f"duplicate view id {entry['id']!r} in {scene_path}")
        seen.add(entry["id"])
        try:
            views.append(_read_view(dataset_dir, entry))
        except (ValueError, TypeError, OverflowError, OSError) as exc:
            raise DatasetFormatError(
                f"view {entry['id']!r} in {scene_path}: {exc}"
            ) from None
    return views


def _read_view(dataset_dir, entry) -> CameraView:
    """The view of one scene.json entry; a bad value raises ValueError or
    TypeError, a number past float range OverflowError, an unreadable raster
    OSError."""
    rotation = np.asarray(entry["rotation"], dtype=np.float64)
    if rotation.size != 9:
        raise ValueError("rotation must hold 9 floats")
    for name in ("width", "height"):
        # A JSON integer only: not a string, a float or a bool.
        if type(entry[name]) is not int:
            raise ValueError(f"{name} must be an integer, got {entry[name]!r}")
    intrinsics = CameraIntrinsics(
        fx=entry["fx"], fy=entry["fy"], cx=entry["cx"], cy=entry["cy"],
        width=entry["width"], height=entry["height"],
    )
    pose = Pose(rotation.reshape(3, 3), np.asarray(entry["translation"]))
    depth_path = dataset_dir / entry["depth_file"]
    view = CameraView(entry["id"], intrinsics, pose, read_depth(depth_path))
    # The normal fit keeps only these pixels: a view without one has no surfel.
    if not view.surfel_mask.any():
        raise ValueError(
            f"no valid depth with 3 valid neighbours in its 3x3 window in {depth_path}")
    return view


def write_overlaps(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_x", "id_y", "nso_xy", "nso_yx"])
        for rec in records:
            writer.writerow([rec.id_x, rec.id_y, repr(rec.nso_xy), repr(rec.nso_yx)])


def _csv_rows(path):
    """(line number, row) of each row of a CSV; bytes that do not decode and a
    row csv cannot split (a field past its size limit) are format errors."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DatasetFormatError(f"unreadable CSV {path}: {exc}") from None


def read_overlaps(path) -> list[OverlapRecord]:
    """Overlap records of a pairs CSV, at least one; no id is empty, and each
    unordered id pair may appear on one row."""
    records = []
    first_row = {}  # unordered id pair -> row number
    ids = {}  # one string object per distinct id, shared by its records
    rows = _csv_rows(path)
    _, header = next(rows, (0, None))
    if header != ["id_x", "id_y", "nso_xy", "nso_yx"]:
        raise DatasetFormatError(f"bad overlap CSV header in {path}: {header}")
    for line, row in rows:
        try:
            id_x, id_y, nso_xy, nso_yx = row
            if not id_x or not id_y:
                raise ValueError("empty image id")
            id_x, id_y = ids.setdefault(id_x, id_x), ids.setdefault(id_y, id_y)
            # OverlapRecord rejects NaN and values outside [0, 1].
            records.append(OverlapRecord(id_x, id_y, float(nso_xy), float(nso_yx)))
        except ValueError as exc:
            raise DatasetFormatError(
                f"bad overlap CSV row {line} in {path}: {row} ({exc})"
            ) from None
        _note_pair(first_row, id_x, id_y, line, path, "overlap")
    if not records:
        raise DatasetFormatError(f"overlap CSV {path} holds no rows")
    return records


def _note_pair(first_row, id_x, id_y, row, path, what):
    """Record the row of an unordered id pair; a pair seen before is a format error."""
    pair = (id_x, id_y) if id_x <= id_y else (id_y, id_x)
    if pair in first_row:
        raise DatasetFormatError(
            f"{what} CSV row {row} in {path} repeats the pair "
            f"({id_x}, {id_y}) of row {first_row[pair]}"
        )
    first_row[pair] = row


def read_id_pairs(path, distinct: bool = False) -> list[tuple[str, str]]:
    """(id_x, id_y) from the first two columns of each row of a CSV.

    Blank rows are skipped, and so is the first row if its first cell is
    `id_x` (a header); further columns, such as the overlap values of a
    pairs.csv, are ignored. With distinct=True a row naming an earlier
    row's pair, in either order, is a format error.
    """
    pairs = []
    first_row = {}  # unordered id pair -> row number
    for line, row in _csv_rows(path):
        if not row or (line == 1 and row[0] == "id_x"):
            continue
        if len(row) < 2 or not row[0] or not row[1]:
            raise DatasetFormatError(f"bad id-pair CSV row {line} in {path}: {row}")
        if distinct:
            _note_pair(first_row, row[0], row[1], line, path, "id-pair")
        pairs.append((row[0], row[1]))
    return pairs
