import hashlib
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from boxoverlap import geometry
from boxoverlap.cli import main
from boxoverlap.training import EmbeddingTable, TrainConfig, save_checkpoint


def tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).iterdir())
    }


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    assert main(["synth", "--out", str(out), "--pattern", "grid:2",
                 "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-run") / "run"
    assert main(["train", "--pairs", str(dataset / "pairs.csv"),
                 "--out", str(out), "--steps", "400", "--seed", "1"]) == 0
    return out


# -- synth ---------------------------------------------------------------------


def test_synth_outputs(dataset):
    assert (dataset / "scene.json").exists()
    assert (dataset / "pairs.csv").exists()
    assert (dataset / "relations.json").exists()
    assert len(list(dataset.glob("*.dpth"))) == 4


def test_synth_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--pattern", "grid:2"])
    assert err.value.code == 2
    capsys.readouterr()


def test_synth_bad_pattern(capsys):
    assert main(["synth", "--out", "/tmp/unused-x", "--pattern", "wat"]) == 2
    assert "unknown pattern" in capsys.readouterr().err


def test_synth_deterministic(tmp_path):
    for name in ("a", "b"):
        assert main(["synth", "--out", str(tmp_path / name),
                     "--pattern", "grid:2", "--seed", "3"]) == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


# -- nso -----------------------------------------------------------------------


def test_nso_self_pair(dataset, tmp_path):
    pairs = tmp_path / "req.csv"
    pairs.write_text("id_x,id_y\ng000,g000\n")
    out = tmp_path / "out.csv"
    assert main(["nso", "--dataset", str(dataset), "--pairs", str(pairs),
                 "--output", str(out), "--seed", "3"]) == 0
    assert out.read_text().splitlines()[1] == "g000,g000,1.0,1.0"


def test_nso_oracle_agreement(dataset, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["nso", "--dataset", str(dataset), "--output", str(out),
                 "--oracle", "--seed", "3"]) == 0
    assert out.read_bytes() == (dataset / "pairs.csv").read_bytes()


def test_nso_unknown_id(dataset, tmp_path, capsys):
    pairs = tmp_path / "req.csv"
    pairs.write_text("id_x,id_y\ng000,ghost\n")
    code = main(["nso", "--dataset", str(dataset), "--pairs", str(pairs),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 2
    assert "ghost" in capsys.readouterr().err


def test_nso_pairs_short_row(dataset, tmp_path, capsys):
    pairs = tmp_path / "req.csv"
    pairs.write_text("id_x,id_y\ng000\n")
    code = main(["nso", "--dataset", str(dataset), "--pairs", str(pairs),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "row 2" in err and "req.csv" in err


@pytest.mark.parametrize("command", ["synth", "nso", "nso-pairs"])
def test_oracle_mismatch_exits_3(command, dataset, tmp_path, monkeypatch, capsys):
    def disagreeing(src_points, dst_points, radius):
        return np.zeros(len(src_points), bool), np.zeros(len(src_points), int)

    monkeypatch.setattr(geometry, "_match_brute", disagreeing)
    out = tmp_path / "o.csv"
    if command == "synth":
        argv = ["synth", "--out", str(tmp_path / "ds"), "--pattern", "grid:2"]
    else:
        argv = ["nso", "--dataset", str(dataset), "--output", str(out)]
    if command == "nso-pairs":
        pairs = tmp_path / "req.csv"
        pairs.write_text("id_x,id_y\ng000,g001\n")
        argv += ["--pairs", str(pairs)]
    assert main(argv + ["--oracle", "--seed", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "brute force" in err


def test_threads_only_for_nso_commands(run_dir, dataset, capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
              "--pairs", str(dataset / "pairs.csv"), "--threads", "2"])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "query", "scale"])
def test_seed_only_for_commands_that_read_it(command, run_dir, dataset, capsys):
    argv = {
        "eval": ["--pairs", str(dataset / "pairs.csv")],
        "query": ["--query-id", "g000"],
        "scale": ["--pairs", str(dataset / "pairs.csv")],
    }[command]
    with pytest.raises(SystemExit) as err:
        main([command, "--checkpoint", str(run_dir / "checkpoint.npz"), *argv,
              "--seed", "9"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(threads, dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["nso", "--dataset", str(dataset), "--output", str(tmp_path / "o.csv"),
              "--threads", threads])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_nso_missing_dataset(tmp_path, capsys):
    code = main(["nso", "--dataset", str(tmp_path / "none"),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 3
    capsys.readouterr()


def test_nso_malformed_scene(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "scene.json").write_text('{"views": [{"id": "a"}]}')
    code = main(["nso", "--dataset", str(bad),
                 "--output", str(tmp_path / "o.csv")])
    assert code == 3
    assert "missing field" in capsys.readouterr().err


def test_nso_duplicate_view_id(dataset, tmp_path, capsys):
    dup = tmp_path / "dup"
    shutil.copytree(dataset, dup)
    doc = json.loads((dup / "scene.json").read_text())
    doc["views"][1]["id"] = doc["views"][0]["id"]
    (dup / "scene.json").write_text(json.dumps(doc))
    code = main(["nso", "--dataset", str(dup), "--output", str(tmp_path / "o.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "duplicate view id 'g000'" in err and "scene.json" in err


def test_nso_malformed_scene_is_data_error(dataset, tmp_path, capsys):
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    doc = json.loads((bad / "scene.json").read_text())
    doc["views"][1]["width"] = "abc"
    (bad / "scene.json").write_text(json.dumps(doc))
    code = main(["nso", "--dataset", str(bad), "--output", str(tmp_path / "o.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "view 'g001'" in err and "scene.json" in err


# -- train / eval --------------------------------------------------------------


def test_train_artifacts(run_dir):
    for name in ("checkpoint.npz", "boxes.json", "loss_trace.csv"):
        assert (run_dir / name).exists()
    assert not (run_dir / "boxes.bin").exists()
    trace = (run_dir / "loss_trace.csv").read_text().splitlines()
    assert trace[0] == "step,loss"
    assert len(trace) == 401


def test_train_divergence_is_usage_error(dataset, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second line
        code = main(["train", "--pairs", str(dataset / "pairs.csv"),
                     "--out", str(tmp_path / "run"), "--steps", "50", "--lr", "1e9"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss") and err.count("\n") == 1


@pytest.mark.parametrize("values", ["nan,0.5", "0.5,x", "1.5,0.5", "0.5,-0.1"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_bad_overlap_value_is_data_error(command, values, run_dir, tmp_path, capsys):
    pairs = tmp_path / "bad.csv"
    pairs.write_text(f"id_x,id_y,nso_xy,nso_yx\ng000,g001,0.5,0.5\ng000,g002,{values}\n")
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "run"), "--steps", "10"]
    else:
        argv = ["eval", "--checkpoint", str(run_dir / "checkpoint.npz")]
    assert main(argv + ["--pairs", str(pairs)]) == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "bad.csv" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "eval"])
def test_repeated_pair_is_data_error(command, run_dir, tmp_path, capsys):
    pairs = tmp_path / "rep.csv"
    pairs.write_text("id_x,id_y,nso_xy,nso_yx\ng000,g001,0.5,0.5\ng001,g000,0.5,0.5\n")
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "run"), "--steps", "10"]
    else:
        argv = ["eval", "--checkpoint", str(run_dir / "checkpoint.npz")]
    assert main(argv + ["--pairs", str(pairs)]) == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "row 2" in err and "rep.csv" in err and err.count("\n") == 1


@pytest.mark.parametrize("content", ["not-npz", "no-params"])
def test_bad_checkpoint_is_data_error(content, dataset, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.npz"
    if content == "not-npz":
        ckpt.write_text("id_x,id_y\n")
    else:
        np.savez(ckpt, kind="box", ids=np.array(["g000"]))
    code = main(["eval", "--checkpoint", str(ckpt), "--pairs", str(dataset / "pairs.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "ckpt.npz" in err and err.count("\n") == 1


def test_eval_metrics_json(run_dir, dataset, tmp_path):
    out = tmp_path / "metrics.json"
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--pairs", str(dataset / "pairs.csv"),
                 "--output", str(out)]) == 0
    metrics = json.loads(out.read_text())
    assert set(metrics) == {"l1_norm", "rmse", "acc_at_0.1"}


def test_eval_deterministic_output(run_dir, dataset, tmp_path):
    outs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
                     "--pairs", str(dataset / "pairs.csv"),
                     "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_eval_perfect_table(tmp_path):
    # Two identical boxes predict (1, 1); targets (1, 1) give zero error.
    row = np.concatenate([np.zeros(4), np.ones(4)])
    table = EmbeddingTable("box", ["a", "b"], np.vstack([row, row]))
    ckpt = tmp_path / "ckpt.npz"
    save_checkpoint(ckpt, table, TrainConfig(dim=4), step=0)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("id_x,id_y,nso_xy,nso_yx\na,b,1.0,1.0\n")
    out = tmp_path / "m.json"
    assert main(["eval", "--checkpoint", str(ckpt), "--pairs", str(pairs),
                 "--output", str(out)]) == 0
    metrics = json.loads(out.read_text())
    assert metrics == {"l1_norm": 0.0, "rmse": 0.0, "acc_at_0.1": 1.0}


# -- query / scale -------------------------------------------------------------


def test_query_self_scores_one(run_dir, dataset, tmp_path):
    out = tmp_path / "hits.jsonl"
    assert main(["query", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--query-id", "g000", "--k", "1", "--hard",
                 "--dataset", str(dataset), "--output", str(out)]) == 0
    hit = json.loads(out.read_text().splitlines()[0])
    assert hit["retrieved_id"] == "g000"
    assert hit["score"] == 1.0
    assert hit["relation"] == "clone-like"
    assert hit["scale"] == 1.0
    assert set(hit) == {"query_id", "retrieved_id", "enclosure",
                        "concentration", "score", "relation", "scale"}


def test_query_unknown_id(run_dir, capsys):
    assert main(["query", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--query-id", "ghost"]) == 2
    assert "ghost" in capsys.readouterr().err


def test_query_rejects_vector_checkpoint(tmp_path, dataset, capsys):
    table = EmbeddingTable("vector", ["a"], np.zeros((1, 4)))
    ckpt = tmp_path / "vec.npz"
    save_checkpoint(ckpt, table, TrainConfig(dim=4), step=0)
    assert main(["query", "--checkpoint", str(ckpt), "--query-id", "a"]) == 2
    assert "box-kind" in capsys.readouterr().err


def test_scale_pairs(run_dir, dataset, tmp_path):
    pairs = tmp_path / "req.csv"
    pairs.write_text("id_x,id_y\ng000,g001\n")
    out = tmp_path / "s.jsonl"
    assert main(["scale", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--pairs", str(pairs), "--dataset", str(dataset),
                 "--output", str(out)]) == 0
    row = json.loads(out.read_text().splitlines()[0])
    assert set(row) == {"id_x", "id_y", "nbo_xy", "nbo_yx", "scale"}
    assert row["scale"] > 0


def test_scale_is_null_without_dataset(run_dir, tmp_path, capsys):
    pairs = tmp_path / "req.csv"
    pairs.write_text("id_x,id_y\ng000,g001\n")
    ckpt = str(run_dir / "checkpoint.npz")
    assert main(["scale", "--checkpoint", ckpt, "--pairs", str(pairs)]) == 0
    assert main(["query", "--checkpoint", ckpt, "--query-id", "g000", "--k", "4"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 5
    assert rows[0]["nbo_xy"] > 0 and rows[1]["enclosure"] > 0
    assert all(row["scale"] is None for row in rows)


def test_scale_pairs_empty_id(run_dir, tmp_path, capsys):
    pairs = tmp_path / "req.csv"
    pairs.write_text("id_x,id_y\ng000,\n")
    code = main(["scale", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--pairs", str(pairs)])
    assert code == 3
    err = capsys.readouterr().err
    assert "row 2" in err and "req.csv" in err


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("BOXOVERLAP_SEED", "3")
    assert main(["synth", "--out", str(tmp_path / "env"),
                 "--pattern", "grid:2"]) == 0
    monkeypatch.delenv("BOXOVERLAP_SEED")
    assert main(["synth", "--out", str(tmp_path / "flag"),
                 "--pattern", "grid:2", "--seed", "3"]) == 0
    assert tree_digest(tmp_path / "env") == tree_digest(tmp_path / "flag")


# -- pinned bytes --------------------------------------------------------------

# sha256 of each output on a 3x3 grid at seed 5, taken from the code before
# the box-overlap forward pass became one batched kernel; they must not move.
PINNED = {
    "loss_trace.csv": "85190bd75099f6a80631edea095ebb60d1909187e71e37eb6568df4880e817f9",
    "boxes.json": "0b7f539b4bc962103f6ac68a6ff663fd35ee789f45170b56c1b2b1014ff5cb5d",
    "metrics.json": "d6377530685f61bce8858146f86c1257a374d6d7b93c40704af9b45d4b412764",
    "scale": "c9f57219031775e5cef2c482efb736fba5808e3b4692b0d7bb7a453d512f5bfa",
    "query": "ec89651444aa32d9bcee90f639e8ad99708a50cb10112b9a2124d0fa819d047d",
    "query_hard": "374f431e2c286338c4da547dbae5705174f808fd6eee998ec31f375646e38b58",
}


def test_box_outputs_pinned(tmp_path, capsys):
    ds, run = tmp_path / "ds", tmp_path / "run"
    assert main(["synth", "--out", str(ds), "--pattern", "grid:3", "--seed", "5"]) == 0
    assert main(["train", "--pairs", str(ds / "pairs.csv"), "--out", str(run),
                 "--steps", "300", "--seed", "5"]) == 0
    ckpt = str(run / "checkpoint.npz")
    assert main(["eval", "--checkpoint", ckpt, "--pairs", str(ds / "pairs.csv"),
                 "--output", str(tmp_path / "metrics.json")]) == 0
    got = {name: (root / name).read_bytes()
           for root, name in ((run, "loss_trace.csv"), (run, "boxes.json"),
                              (tmp_path, "metrics.json"))}
    capsys.readouterr()
    query = ["query", "--checkpoint", ckpt, "--query-id", "g004", "--k", "9",
             "--dataset", str(ds)]
    for name, argv in (
        ("scale", ["scale", "--checkpoint", ckpt, "--pairs", str(ds / "pairs.csv"),
                   "--dataset", str(ds)]),
        ("query", query),
        ("query_hard", query + ["--hard"]),
    ):
        assert main(argv) == 0
        got[name] = capsys.readouterr().out.encode()
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == PINNED
