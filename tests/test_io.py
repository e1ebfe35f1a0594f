import json

import numpy as np
import pytest

from boxoverlap import dataset_io
from boxoverlap.dataset_io import DatasetFormatError
from boxoverlap.geometry import OverlapRecord
from boxoverlap.synth import HeightfieldSurface, Placement, render_depth


def sample_views():
    surface = HeightfieldSurface(0.0)
    return [
        render_depth(surface, Placement(
            f"v{i}", position=(float(i), 0.0, 10.0), target=(float(i), 0.0, 0.0)))
        for i in range(3)
    ]


# -- depth rasters -------------------------------------------------------------


def test_depth_round_trip(tmp_path):
    depth = np.array([[1.5, np.nan], [2.25, 3.0]], dtype=np.float64)
    path = tmp_path / "d.dpth"
    dataset_io.write_depth(path, depth)
    back = dataset_io.read_depth(path)
    assert back.shape == (2, 2)
    assert np.isnan(back[0, 1])
    # Values representable in float32 survive exactly.
    assert back[0, 0] == 1.5 and back[1, 0] == 2.25 and back[1, 1] == 3.0


def test_depth_bad_magic(tmp_path):
    path = tmp_path / "bad.dpth"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(DatasetFormatError, match="magic"):
        dataset_io.read_depth(path)


def test_depth_truncated_header(tmp_path):
    path = tmp_path / "short.dpth"
    path.write_bytes(b"DPTH\x01")
    with pytest.raises(DatasetFormatError, match="truncated"):
        dataset_io.read_depth(path)


def test_depth_truncated_payload(tmp_path):
    path = tmp_path / "cut.dpth"
    dataset_io.write_depth(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DatasetFormatError, match="payload"):
        dataset_io.read_depth(path)


def test_depth_header_past_file_end(tmp_path):
    path = tmp_path / "huge.dpth"
    path.write_bytes(b"DPTH" + b"\xff" * 8 + b"\x00" * 4 + b"\x00" * 64)
    with pytest.raises(DatasetFormatError, match="huge.dpth"):
        dataset_io.read_depth(path)


# -- scene ---------------------------------------------------------------------


def test_scene_round_trip(tmp_path):
    views = sample_views()
    dataset_io.write_scene(tmp_path, views)
    loaded = dataset_io.read_scene(tmp_path)
    assert [v.id for v in loaded] == [v.id for v in views]
    for got, want in zip(loaded, views):
        assert got.intrinsics == want.intrinsics
        assert np.allclose(got.pose.rotation, want.pose.rotation)
        assert np.allclose(got.pose.translation, want.pose.translation)
        assert np.array_equal(got.valid_mask, want.valid_mask)
        # Depth goes through float32 storage.
        assert np.allclose(got.depth[got.valid_mask],
                           want.depth[want.valid_mask], rtol=1e-6)


def test_scene_missing(tmp_path):
    with pytest.raises(DatasetFormatError, match="scene.json"):
        dataset_io.read_scene(tmp_path / "nope")


def test_scene_invalid_json(tmp_path):
    (tmp_path / "scene.json").write_text("{not json")
    with pytest.raises(DatasetFormatError, match="invalid JSON"):
        dataset_io.read_scene(tmp_path)


def test_scene_without_views(tmp_path):
    (tmp_path / "scene.json").write_text('{"views": []}')
    with pytest.raises(DatasetFormatError, match=r"scene\.json holds no views"):
        dataset_io.read_scene(tmp_path)


def test_scene_missing_field_named(tmp_path):
    dataset_io.write_scene(tmp_path, sample_views())
    doc = json.loads((tmp_path / "scene.json").read_text())
    del doc["views"][1]["rotation"]
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="'rotation'"):
        dataset_io.read_scene(tmp_path)


@pytest.mark.parametrize("view_id, message", [
    ("v0", r"duplicate view id 'v0' in .*scene\.json"),
    (["v0"], r"view #2 in .*scene\.json: id must be a string"),
    ("", r"view #2 in .*scene\.json: id must not be empty"),
], ids=["duplicate", "not-a-string", "empty"])
def test_scene_bad_id_named(view_id, message, tmp_path):
    dataset_io.write_scene(tmp_path, sample_views())
    doc = json.loads((tmp_path / "scene.json").read_text())
    doc["views"][2]["id"] = view_id
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match=message):
        dataset_io.read_scene(tmp_path)


def _edit_view(field, value):
    def edit(doc):
        doc["views"][1][field] = value
        return doc
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [1, 2], "must be an object with a list of views"),
    (lambda doc: {"views": 5}, "must be an object with a list of views"),
    (lambda doc: {"views": [doc["views"][0], 7]}, "view #1 in .*scene.json: not an object"),
    (_edit_view("rotation", "abc"), r"view 'v1' in .*scene\.json: "),
    (_edit_view("width", "abc"), r"view 'v1' in .*scene\.json: "),
    (_edit_view("translation", [1.0]), r"view 'v1' in .*scene\.json: .*translation a 3-vector"),
    (_edit_view("fx", "abc"), r"view 'v1' in .*scene\.json: "),
    (_edit_view("fx", float("nan")), r"view 'v1' in .*scene\.json: .*positive and finite"),
    (_edit_view("fy", float("inf")), r"view 'v1' in .*scene\.json: .*positive and finite"),
    (_edit_view("translation", [0.0, float("nan"), 10.0]),
     r"view 'v1' in .*scene\.json: translation must be finite"),
    (_edit_view("translation", [float("inf"), 0.0, 10.0]),
     r"view 'v1' in .*scene\.json: translation must be finite"),
], ids=["root-list", "views-int", "view-int", "rotation-str", "width-str", "translation-1",
        "fx-str", "fx-nan", "fy-inf", "translation-nan", "translation-inf"])
def test_scene_bad_shape_named(edit, message, tmp_path):
    dataset_io.write_scene(tmp_path, sample_views())
    doc = json.loads((tmp_path / "scene.json").read_text())
    (tmp_path / "scene.json").write_text(json.dumps(edit(doc)))
    with pytest.raises(DatasetFormatError, match=message):
        dataset_io.read_scene(tmp_path)


def test_scene_bad_rotation_length(tmp_path):
    dataset_io.write_scene(tmp_path, sample_views())
    doc = json.loads((tmp_path / "scene.json").read_text())
    doc["views"][0]["rotation"] = [1.0, 0.0]
    (tmp_path / "scene.json").write_text(json.dumps(doc))
    with pytest.raises(DatasetFormatError, match="9 floats"):
        dataset_io.read_scene(tmp_path)


# -- overlap CSV ---------------------------------------------------------------


def test_overlaps_round_trip(tmp_path):
    records = [
        OverlapRecord("a", "b", 0.123456789012345, 1.0),
        OverlapRecord("b", "c", 0.0, 1.0 / 3.0),
    ]
    path = tmp_path / "pairs.csv"
    dataset_io.write_overlaps(path, records)
    loaded = dataset_io.read_overlaps(path)
    assert loaded == records  # repr round-trips floats exactly


def test_overlaps_byte_deterministic(tmp_path):
    records = [OverlapRecord("a", "b", np.random.default_rng(0).random(), 0.5)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dataset_io.write_overlaps(p1, records)
    dataset_io.write_overlaps(p2, records)
    assert p1.read_bytes() == p2.read_bytes()


def test_overlaps_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,a,b\n1,2,3,4\n")
    with pytest.raises(DatasetFormatError, match="header"):
        dataset_io.read_overlaps(path)


def test_overlaps_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id_x,id_y,nso_xy,nso_yx\na,b,0.5\n")
    with pytest.raises(DatasetFormatError, match="row"):
        dataset_io.read_overlaps(path)


@pytest.mark.parametrize("repeat", ["a,b,0.5,0.25", "b,a,0.25,0.5"],
                         ids=["duplicate", "reversed"])
def test_overlaps_repeated_pair_named(repeat, tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(f"id_x,id_y,nso_xy,nso_yx\na,b,0.5,0.25\na,c,0.1,0.1\n{repeat}\n")
    with pytest.raises(DatasetFormatError,
                       match=r"row 4 in .*pairs\.csv repeats the pair .* of row 2"):
        dataset_io.read_overlaps(path)


@pytest.mark.parametrize("row", [",b,0.5,0.5", "a,,0.5,0.5"], ids=["x", "y"])
def test_overlaps_empty_id_named(row, tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(f"id_x,id_y,nso_xy,nso_yx\na,b,0.5,0.25\n{row}\n")
    with pytest.raises(DatasetFormatError, match=r"row 3 in .*pairs\.csv.*empty image id"):
        dataset_io.read_overlaps(path)


def test_overlaps_distinct_pairs_sharing_ids(tmp_path):
    records = [OverlapRecord("a", "b", 0.5, 0.5), OverlapRecord("a", "a", 1.0, 1.0),
               OverlapRecord("b", "c", 0.2, 0.1), OverlapRecord("c", "a", 0.0, 0.0)]
    path = tmp_path / "pairs.csv"
    dataset_io.write_overlaps(path, records)
    assert dataset_io.read_overlaps(path) == records


def test_overlaps_hold_one_string_per_id(tmp_path):
    records = [OverlapRecord(f"v{i}", f"v{j}", 0.5, 0.25)
               for i in range(6) for j in range(i + 1, 6)]
    path = tmp_path / "pairs.csv"
    dataset_io.write_overlaps(path, records)
    loaded = dataset_io.read_overlaps(path)
    assert loaded == records
    # Equal ids from different cells are one object.
    first = {}
    for rec in loaded:
        for img_id in (rec.id_x, rec.id_y):
            assert first.setdefault(img_id, img_id) is img_id
    assert len(first) == 6


# -- id-pair CSVs --------------------------------------------------------------


def test_id_pairs_skip_header_and_extra_columns(tmp_path):
    path = tmp_path / "req.csv"
    path.write_text("id_x,id_y,nso_xy,nso_yx\na,b,0.5,0.25\n\nc,d\n")
    assert dataset_io.read_id_pairs(path) == [("a", "b"), ("c", "d")]


def test_id_pairs_skip_only_a_leading_header(tmp_path):
    # Past the first row, `id_x` is a view id like any other.
    path = tmp_path / "req.csv"
    path.write_text("id_x,id_y\nid_x,b\n\na,id_x\n")
    assert dataset_io.read_id_pairs(path) == [("id_x", "b"), ("a", "id_x")]


@pytest.mark.parametrize("row", ["a", "a,", ",b"])
def test_id_pairs_bad_row_named(tmp_path, row):
    path = tmp_path / "req.csv"
    path.write_text(f"id_x,id_y\na,b\n{row}\n")
    with pytest.raises(DatasetFormatError, match=r"row 3 in .*req\.csv"):
        dataset_io.read_id_pairs(path)
