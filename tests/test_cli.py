import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxoverlap import cli, dataset_io, geometry, synth
from boxoverlap.cli import build_parser, main
from boxoverlap.training import (
    EmbeddingTable,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)


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


def one_error_line(capsys):
    """stderr of a failed run, checked to be its only output: one `error:` line."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_synth_missing_out_is_usage_error(capsys):
    assert main(["synth", "--pattern", "grid:2"]) == 2
    assert "--out" in one_error_line(capsys)


def test_synth_bad_pattern(capsys):
    assert main(["synth", "--out", "/tmp/unused-x", "--pattern", "wat"]) == 2
    assert "unknown pattern" in capsys.readouterr().err


@pytest.mark.parametrize("pattern", [[], ["--pattern", "default"]],
                         ids=["no-pattern", "pattern-default"])
def test_synth_default_pattern_is_default_script(pattern):
    # Parse only: rendering the default script takes seconds.
    args = build_parser().parse_args(["synth", "--out", "unused"] + pattern)
    assert args.pattern is synth.default_script


@pytest.mark.parametrize("pattern", ["grid:x", "grid:0", "grid:1", "grid:"])
def test_synth_bad_grid_size_names_pattern(pattern, tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "ds"), "--pattern", pattern]) == 2
    err = one_error_line(capsys)
    assert "argument --pattern: unknown pattern" in err and repr(pattern) in err
    assert not (tmp_path / "ds").exists()


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


@pytest.mark.parametrize("repeat", ["g000,g001", "g001,g000"])
def test_nso_pairs_repeated_pair_is_data_error(repeat, dataset, run_dir, tmp_path, capsys):
    pairs = tmp_path / "req.csv"
    pairs.write_text(f"id_x,id_y\ng000,g001\ng000,g002\n{repeat}\n")
    out = tmp_path / "o.csv"
    code = main(["nso", "--dataset", str(dataset), "--pairs", str(pairs),
                 "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "row 4" in err and "row 2" in err and "req.csv" in err and err.count("\n") == 1
    assert not out.exists()
    # scale answers each requested row, repeats included.
    assert main(["scale", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--pairs", str(pairs)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


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
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--pairs", str(dataset / "pairs.csv"), "--threads", "2"]) == 2
    assert "--threads" in one_error_line(capsys)


@pytest.mark.parametrize("command", ["eval", "query", "scale"])
def test_seed_only_for_commands_that_read_it(command, run_dir, dataset, capsys):
    argv = {
        "eval": ["--pairs", str(dataset / "pairs.csv")],
        "query": ["--query-id", "g000"],
        "scale": ["--pairs", str(dataset / "pairs.csv")],
    }[command]
    assert main([command, "--checkpoint", str(run_dir / "checkpoint.npz"), *argv,
                 "--seed", "9"]) == 2
    assert "--seed" in one_error_line(capsys)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(threads, dataset, tmp_path, capsys):
    assert main(["nso", "--dataset", str(dataset), "--output", str(tmp_path / "o.csv"),
                 "--threads", threads]) == 2
    assert "--threads" in one_error_line(capsys)


def numeric_options():
    """(command, flag) of each option of each subcommand that converts its value."""
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, parser in commands.items()
            for action in parser._actions if action.type is not None]


# Every numeric option of every subcommand, with values each must reject
# (0 is a valid seed, the default). No value exceeds an option's default, so
# none starts more threads or steps than a default run.
NUMERIC_OPTIONS = numeric_options()
BAD_NUMBERS = [(command, flag, value) for command, flag in NUMERIC_OPTIONS
               for value in ("nan", "inf", "-inf", "0", "-1", "x")
               if (flag, value) != ("--seed", "0")]


@pytest.mark.parametrize("command, flag, value", BAD_NUMBERS,
                         ids=[f"{c}{f}={v}" for c, f, v in BAD_NUMBERS])
def test_bad_numeric_option_is_one_line_usage_error(command, flag, value, dataset, run_dir,
                                                    tmp_path, capsys):
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "ds"), "--pattern", "grid:2"],
        "nso": ["nso", "--dataset", str(dataset), "--output", str(tmp_path / "o.csv")],
        "train": ["train", "--pairs", str(dataset / "pairs.csv"), "--out", str(tmp_path / "run"),
                  "--steps", "10"],
        "query": ["query", "--checkpoint", str(run_dir / "checkpoint.npz"), "--query-id", "g000"],
    }[command]
    # The `=` form hands "-inf" and "-1" to the option, not to the parser as a flag.
    assert main(argv + [f"{flag}={value}"]) == 2
    err = one_error_line(capsys)
    assert flag in err or flag[2:].replace("-", "_") in err


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["nso", "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: boxoverlap nso")


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


@pytest.mark.parametrize("field, value", [("width", "64"), ("width", 64.7), ("width", 64.0),
                                          ("height", "48"), ("height", True)])
def test_view_size_must_be_a_json_integer(field, value, dataset, tmp_path, capsys):
    # A size that is not a JSON integer is a data error, never truncated to one.
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    doc = json.loads((bad / "scene.json").read_text())
    doc["views"][1][field] = value
    (bad / "scene.json").write_text(json.dumps(doc))
    assert main(["nso", "--dataset", str(bad), "--output", str(tmp_path / "o.csv")]) == 3
    assert one_error_line(capsys) == (f"error: view 'g001' in {bad / 'scene.json'}: "
                                      f"{field} must be an integer, got {value!r}\n")


@pytest.mark.parametrize("field, value", [("fx", 5e-324), ("translation", [0.0, 0.0, 1e151])])
def test_view_reaching_past_the_extent_is_data_error(field, value, dataset, tmp_path, capsys):
    # A subnormal focal length put points at inf: the normal fit turned them
    # into NaN with numpy warnings on stderr. Read time rejects the view.
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    doc = json.loads((bad / "scene.json").read_text())
    doc["views"][1][field] = value
    (bad / "scene.json").write_text(json.dumps(doc))
    assert main(["nso", "--dataset", str(bad), "--output", str(tmp_path / "o.csv")]) == 3
    assert one_error_line(capsys) == (f"error: view 'g001' in {bad / 'scene.json'}: "
                                      f"points lie beyond 1e+150 of the origin\n")


@pytest.mark.parametrize("value", ["g\n0", "g\r\n0", "g\u20280"])
def test_line_break_in_a_named_id_is_escaped(value, run_dir, tmp_path, capsys):
    # The message names the id the CSV holds; its line break would split the
    # one error line, so it is printed escaped.
    pairs = tmp_path / "pairs.csv"
    with pairs.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["id_x", "id_y", "nso_xy", "nso_yx"],
                                  [value, "g001", "0.5", "0.5"]])
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--pairs", str(pairs)]) == 2
    err = one_error_line(capsys)
    assert len(err.splitlines()) == 1
    assert err == f"error: unknown image id in {pairs}: {repr(value)[1:-1]}\n"


def test_nso_depth_file_naming_a_directory_is_data_error(dataset, tmp_path, capsys):
    # Opening the raster raises IsADirectoryError, an OSError: the message
    # names the view and the scene.json that points at the directory.
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    doc = json.loads((bad / "scene.json").read_text())
    doc["views"][1]["depth_file"] = "."
    (bad / "scene.json").write_text(json.dumps(doc))
    assert main(["nso", "--dataset", str(bad), "--output", str(tmp_path / "o.csv")]) == 3
    err = one_error_line(capsys)
    assert err.startswith(f"error: view 'g001' in {bad / 'scene.json'}: ")


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("case", ["overlaps-not-utf8", "id-pairs-field-too-long",
                                  "scene-not-utf8", "scene-width-inf", "scene-too-deep",
                                  "checkpoint-config-too-deep"])
def test_unreadable_input_is_data_error(case, dataset, run_dir, tmp_path, capsys):
    # Each raised an exception that main did not read as a data error: a
    # UnicodeDecodeError (a ValueError, so exit 2), csv.Error, OverflowError
    # or RecursionError.
    ckpt = run_dir / "checkpoint.npz"
    bad = tmp_path / "bad.csv"
    if case == "overlaps-not-utf8":
        bad.write_bytes(b"id_x,id_y,nso_xy,nso_yx\ng000,g\xff01,0.5,0.5\n")
        argv = ["eval", "--checkpoint", str(ckpt), "--pairs", str(bad)]
    elif case == "id-pairs-field-too-long":
        bad.write_text("id_x,id_y\ng000," + "g" * 200_000 + "\n")
        argv = ["scale", "--checkpoint", str(ckpt), "--pairs", str(bad)]
    elif case == "checkpoint-config-too-deep":
        with np.load(ckpt) as data:
            fields = dict(data)
        bad = tmp_path / "deep.npz"
        np.savez(bad, **{**fields, "config": DEEP_JSON})
        argv = ["eval", "--checkpoint", str(bad), "--pairs", str(dataset / "pairs.csv")]
    else:
        bad = tmp_path / "ds" / "scene.json"
        shutil.copytree(dataset, bad.parent)
        text = bad.read_bytes()
        bad.write_bytes({
            "scene-not-utf8": text.replace(b'"g001"', b'"g\xff01"'),
            "scene-width-inf": text.replace(b'"width": 64', b'"width": 1e400', 1),
            "scene-too-deep": DEEP_JSON.encode(),
        }[case])
        argv = ["nso", "--dataset", str(bad.parent), "--output", str(tmp_path / "o.csv")]
    assert main(argv) == 3
    assert str(bad) in one_error_line(capsys)


def test_nso_depth_header_past_file_end_is_data_error(dataset, tmp_path, capsys):
    # The header's 0xFFFFFFFF x 0xFFFFFFFF payload is checked against the
    # file size before any read.
    bad = tmp_path / "bad"
    shutil.copytree(dataset, bad)
    raw = (bad / "g001.dpth").read_bytes()
    (bad / "g001.dpth").write_bytes(raw[:4] + b"\xff" * 8 + raw[12:])
    code = main(["nso", "--dataset", str(bad), "--output", str(tmp_path / "o.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "g001.dpth" in err and "truncated" in err


# -- train / eval --------------------------------------------------------------


@pytest.mark.parametrize("command, target", [
    ("nso", "missing/o.csv"), ("nso", "dir"), ("nso", "file/o.csv"), ("nso-pairs", "dir"),
    ("train", "file"), ("train", "file/run"), ("train", "file/a/run"), ("train", "dir"),
])
def test_bad_output_path_fails_before_the_work(command, target, dataset, tmp_path,
                                               monkeypatch, capsys):
    # A bad output path exits as it did when the command found it only after
    # its work (nso computing every pair, train every step), and it no longer
    # does that work. The directory `dir` holds a directory checkpoint.npz.
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "checkpoint.npz").mkdir(parents=True)
    pairs = tmp_path / "req.csv"
    pairs.write_text("id_x,id_y\ng000,g001\n")
    out = str(tmp_path / target)
    argv = {
        "nso": ["nso", "--dataset", str(dataset), "--output", out],
        "nso-pairs": ["nso", "--dataset", str(dataset), "--pairs", str(pairs), "--output", out],
        "train": ["train", "--pairs", str(dataset / "pairs.csv"), "--out", out,
                  "--steps", "20"],
    }[command]
    monkeypatch.setattr(cli, "_check_file_output", lambda path: None)
    monkeypatch.setattr(cli, "_check_dir_output", lambda path, names: None)
    assert main(argv) == 3
    after_work = one_error_line(capsys)
    monkeypatch.undo()

    def work(*args, **kwargs):
        raise AssertionError("the command worked before checking its output path")

    for name in ("all_pairs_nso", "pairs_nso", "train"):
        monkeypatch.setattr(cli, name, work)
    assert main(argv) == 3
    assert one_error_line(capsys) == after_work
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "checkpoint.npz", "dir", "file", "req.csv"]


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


@pytest.mark.parametrize("lr, steps, message", [
    # The loss of each step is finite, and the last update leaves NaN params.
    ("1e10", "2", "error: non-finite params after 2 steps (ids: ['i0', 'i1'])\n"),
    # Finite params whose bounds pass the float64 range: no strict JSON.
    ("1.7e308", "1", "error: non-finite bounds after 1 steps (ids: ['i0'])\n"),
], ids=["nan-params", "bounds-past-float64"])
def test_train_ending_in_non_finite_values_writes_nothing(lr, steps, message, tmp_path,
                                                          capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("id_x,id_y,nso_xy,nso_yx\ni0,i1,0.6,1.0\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second line
        code = main(["train", "--pairs", str(pairs), "--out", str(tmp_path / "run"),
                     "--dim", "2", "--lr", lr, "--steps", steps, "--batch-size", "1",
                     "--seed", "1"])
    assert code == 2
    assert one_error_line(capsys).startswith(message)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array with "
                                     "shape (1000000000000,) and data type float64", ""])
def test_train_out_of_memory_is_usage_error(message, dataset, tmp_path, monkeypatch,
                                            capsys):
    # A size option beyond the machine, such as --steps 1000000000000, makes
    # numpy raise MemoryError; no real allocation of that size is made here.
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "train", out_of_memory)
    assert main(["train", "--pairs", str(dataset / "pairs.csv"),
                 "--out", str(tmp_path / "run"), "--steps", "1000000000000"]) == 2
    err = one_error_line(capsys)
    assert err.startswith("error: out of memory: ")
    assert message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("option", [["train", "--rho", "nan"], ["train", "--lr", "inf"],
                                    ["nso", "--radius", "nan"]],
                         ids=["train-rho-nan", "train-lr-inf", "nso-radius-nan"])
def test_non_finite_option_is_usage_error(option, dataset, tmp_path, capsys):
    command, flag, value = option
    if command == "train":
        argv = ["train", "--pairs", str(dataset / "pairs.csv"), "--out", str(tmp_path / "run"),
                "--steps", "10"]
    else:
        argv = ["nso", "--dataset", str(dataset), "--output", str(tmp_path / "o.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be positive and finite" in err


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
def test_empty_overlap_id_is_data_error(command, run_dir, tmp_path, capsys):
    pairs = tmp_path / "bad.csv"
    pairs.write_text("id_x,id_y,nso_xy,nso_yx\ng000,g001,0.5,0.5\n,g002,0.5,0.5\n")
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "run"), "--steps", "10"]
    else:
        argv = ["eval", "--checkpoint", str(run_dir / "checkpoint.npz")]
    assert main(argv + ["--pairs", str(pairs)]) == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "bad.csv" in err and "empty image id" in err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["train", "eval"])
def test_overlap_csv_without_rows_is_data_error(command, run_dir, tmp_path, capsys):
    pairs = tmp_path / "empty.csv"
    pairs.write_text("id_x,id_y,nso_xy,nso_yx\n")
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "run"), "--steps", "10"]
    else:
        argv = ["eval", "--checkpoint", str(run_dir / "checkpoint.npz")]
    assert main(argv + ["--pairs", str(pairs)]) == 3
    err = capsys.readouterr().err
    assert "empty.csv" in err and "no rows" in err and err.count("\n") == 1


@pytest.mark.parametrize("content", ["not-npz", "npy", "empty", "no-params"])
def test_bad_checkpoint_is_data_error(content, dataset, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.npz"
    if content == "not-npz":
        ckpt.write_text("id_x,id_y\n")
    elif content == "npy":
        with ckpt.open("wb") as f:
            np.save(f, np.zeros(3))
    elif content == "empty":
        ckpt.write_bytes(b"")
    else:
        np.savez(ckpt, kind="box", ids=np.array(["g000"]))
    code = main(["eval", "--checkpoint", str(ckpt), "--pairs", str(dataset / "pairs.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "ckpt.npz" in err and err.count("\n") == 1
    assert "allow_pickle" not in err
    if content != "no-params":
        assert "not an .npz archive" in err


def run_with_g001_depth(command, keep, dataset, run_dir, tmp_path, capsys):
    """Run `command` on a copy of the dataset whose g001.dpth keeps only the
    pixels `keep` selects (NaN elsewhere); check that it fails as a data
    error naming the view and its files, and return its stderr."""
    copy = tmp_path / "ds"
    shutil.copytree(dataset, copy)
    depth_file = copy / "g001.dpth"
    depth = dataset_io.read_depth(depth_file)
    dataset_io.write_depth(depth_file, np.where(keep(depth.shape), depth, np.nan))
    ckpt = str(run_dir / "checkpoint.npz")
    argv = {
        "nso": ["nso", "--dataset", str(copy), "--output", str(tmp_path / "o.csv")],
        "query": ["query", "--checkpoint", ckpt, "--query-id", "g000", "--dataset", str(copy)],
        "scale": ["scale", "--checkpoint", ckpt, "--pairs", str(dataset / "pairs.csv"),
                  "--dataset", str(copy)],
    }[command]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'g001'" in err and "scene.json" in err and "g001.dpth" in err
    return err


@pytest.mark.parametrize("command", ["nso", "query", "scale"])
def test_view_without_valid_depth_is_data_error(command, dataset, run_dir, tmp_path, capsys):
    run_with_g001_depth(command, lambda shape: np.zeros(shape, bool),
                        dataset, run_dir, tmp_path, capsys)


def every_third_pixel(shape):
    """Every third row and column: valid pixels, none with a valid neighbour."""
    keep = np.zeros(shape, bool)
    keep[::3, ::3] = True
    return keep


@pytest.mark.parametrize("command", ["nso", "query", "scale"])
def test_view_without_normal_fit_is_data_error(command, dataset, run_dir, tmp_path, capsys):
    # Such a view has valid depth but no pixel the normal fit keeps, so
    # backprojecting it would yield no surfel; read time rejects it.
    err = run_with_g001_depth(command, every_third_pixel, dataset, run_dir, tmp_path, capsys)
    assert "3x3" in err


@pytest.mark.parametrize("command", ["eval", "query"])
def test_non_finite_checkpoint_params_is_data_error(command, run_dir, dataset, tmp_path,
                                                    capsys):
    with np.load(run_dir / "checkpoint.npz") as data:
        fields = dict(data)
    fields["params"][1, 3] = np.nan
    ckpt = tmp_path / "nan.npz"
    np.savez(ckpt, **fields)
    argv = (["--pairs", str(dataset / "pairs.csv")] if command == "eval"
            else ["--query-id", "g000"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--checkpoint", str(ckpt), *argv]) == 3
    err = capsys.readouterr().err
    assert "nan.npz" in err and "non-finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "query"])
def test_repeated_checkpoint_id_is_data_error(command, run_dir, dataset, tmp_path, capsys):
    with np.load(run_dir / "checkpoint.npz") as data:
        fields = dict(data)
    assert fields["ids"].tolist() == ["g000", "g001", "g002", "g003"]
    fields["ids"] = np.array(["g000", "g000", "g002", "g003"])
    ckpt = tmp_path / "dup.npz"
    np.savez(ckpt, **fields)
    argv = (["--pairs", str(dataset / "pairs.csv")] if command == "eval"
            else ["--query-id", "g000", "--k", "4", "--hard"])
    assert main([command, "--checkpoint", str(ckpt), *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dup.npz" in captured.err and "repeated image id: g000" in captured.err
    assert captured.err.count("\n") == 1


def run_with_g001_size_raw(command, size_raw, rho, run_dir, dataset, tmp_path,
                           query=("--query-id", "g001")):
    """Exit code of `command` on the trained checkpoint with every size_raw of
    g001 set to `size_raw` and the config's rho set to `rho`, and that
    checkpoint's path."""
    with np.load(run_dir / "checkpoint.npz") as data:
        fields = dict(data)
    dim = fields["params"].shape[1] // 2
    fields["params"][1, dim:] = size_raw
    fields["config"] = json.dumps({**json.loads(str(fields["config"])), "rho": rho})
    ckpt = tmp_path / "box.npz"
    np.savez(ckpt, **fields)
    pairs = tmp_path / "req.csv"
    pairs.write_text("id_x,id_y\ng000,g001\n")
    argv = {"eval": ["--pairs", str(dataset / "pairs.csv")],
            "query": list(query),
            "scale": ["--pairs", str(pairs)]}[command]
    return main([command, "--checkpoint", str(ckpt), *argv]), ckpt


@pytest.mark.parametrize("command", ["eval", "query", "scale"])
def test_zero_volume_checkpoint_box_is_data_error(command, run_dir, dataset, tmp_path,
                                                  capsys):
    # softplus(-800) underflows to a zero width in every dimension of g001:
    # a zero hard volume, and a zero smoothed volume at rho 1e-20.
    code, ckpt = run_with_g001_size_raw(command, -800.0, 1e-20, run_dir, dataset, tmp_path,
                                        query=("--query-id", "g001", "--hard"))
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: degenerate box: zero volume of image g001 in checkpoint {ckpt}\n")


# A numpy RuntimeWarning is an error here, so a warning line fails the test.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["eval", "query", "scale"])
def test_overflowing_volume_checkpoint_box_is_data_error(command, run_dir, dataset,
                                                         tmp_path, capsys):
    # Finite params, but 1e300 in every dimension of g001 makes its volume,
    # hard or smoothed, overflow to inf.
    code, ckpt = run_with_g001_size_raw(command, 1e300, 5.0, run_dir, dataset, tmp_path)
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: degenerate box: overflowing volume of image g001 in checkpoint {ckpt}\n")


@pytest.mark.filterwarnings("error")
def test_query_beside_overflowing_box_prints_finite_overlaps(run_dir, dataset, tmp_path,
                                                             capsys):
    # g001's volume divides no overlap of query g000: it only makes g001's
    # concentration 0, and its bounds too wide to square for the index.
    code, _ = run_with_g001_size_raw("query", 1e300, 5.0, run_dir, dataset, tmp_path,
                                     query=("--query-id", "g000", "--k", "4"))
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = {r["retrieved_id"]: r for r in map(json.loads, captured.out.splitlines())}
    assert sorted(rows) == ["g000", "g001", "g002", "g003"]
    assert (rows["g001"]["enclosure"], rows["g001"]["concentration"]) == (1.0, 0.0)
    assert all(0.0 <= r[key] <= 1.0 for r in rows.values()
               for key in ("enclosure", "concentration", "score"))


# Config keys of checkpoints written when TrainConfig also held the Adam and
# initialisation constants, with the values it stored.
RETIRED_CONFIG = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "lr_final_scale": 0.01,
                  "init_center_std": 10.0, "init_size_raw": 100.0}


@pytest.mark.parametrize("key", RETIRED_CONFIG)
def test_checkpoint_with_retired_config_key_is_data_error(key, run_dir, dataset, tmp_path,
                                                          capsys):
    # TrainConfig lacks these keys, so such a checkpoint does not load.
    with np.load(run_dir / "checkpoint.npz") as data:
        fields = dict(data)
    config = {**json.loads(str(fields["config"])), key: RETIRED_CONFIG[key]}
    old = tmp_path / "old.npz"
    np.savez(old, **{**fields, "config": json.dumps(config, sort_keys=True)})
    assert main(["eval", "--checkpoint", str(old), "--pairs", str(dataset / "pairs.csv")]) == 3
    err = capsys.readouterr().err
    assert "old.npz" in err and key in err and err.count("\n") == 1


def test_checkpoint_with_unknown_config_key_is_data_error(run_dir, dataset, tmp_path,
                                                          capsys):
    with np.load(run_dir / "checkpoint.npz") as data:
        fields = dict(data)
    config = {**json.loads(str(fields["config"])), "momentum": 0.9}
    ckpt = tmp_path / "odd.npz"
    np.savez(ckpt, **{**fields, "config": json.dumps(config)})
    assert main(["eval", "--checkpoint", str(ckpt), "--pairs", str(dataset / "pairs.csv")]) == 3
    err = capsys.readouterr().err
    assert "odd.npz" in err and "momentum" in err and err.count("\n") == 1


def test_eval_unknown_id(run_dir, tmp_path, capsys):
    pairs = tmp_path / "req.csv"
    pairs.write_text("id_x,id_y,nso_xy,nso_yx\ng000,g001,0.5,0.5\ng002,zzz,0.5,0.5\n")
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"),
                 "--pairs", str(pairs)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown image id in {pairs}: zzz\n"


@pytest.mark.parametrize("command", ["query", "scale"])
def test_dataset_lacks_checkpoint_id(command, run_dir, dataset, tmp_path, capsys):
    # The checkpoint holds zz, the dataset does not: the message names the
    # dataset's scene.json.
    with np.load(run_dir / "checkpoint.npz") as data:
        fields = dict(data)
    fields["ids"] = np.array(["g000", "zz", "g002", "g003"])
    ckpt = tmp_path / "zz.npz"
    np.savez(ckpt, **fields)
    if command == "query":
        argv = ["--query-id", "g000", "--k", "4", "--hard"]
    else:
        pairs = tmp_path / "req.csv"
        pairs.write_text("id_x,id_y\ng000,zz\n")
        argv = ["--pairs", str(pairs)]
    code = main([command, "--checkpoint", str(ckpt), *argv, "--dataset", str(dataset)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown image id in {dataset / 'scene.json'}: zz\n"


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


# -- processes -----------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code, *args, **env):
    """stdout and stderr of `code` run with args in a fresh interpreter that
    imports the package from the source tree, with env added to its
    environment."""
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": str(SRC), **env},
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout.decode("ascii"), proc.stderr.decode("ascii")


# Reads a UTF-8 overlap CSV, writes it back, trains and evaluates on it, then
# trains on a latin-1 one; prints the locale encoding and each exit code.
LOCALE_RUN = """
import locale, sys
from boxoverlap import cli, dataset_io
good, bad, out = sys.argv[1:]
dataset_io.write_overlaps(out + "/pairs.csv", dataset_io.read_overlaps(good))
train = ["train", "--pairs", good, "--out", out + "/run", "--steps", "2", "--dim", "2"]
evaluate = ["eval", "--checkpoint", out + "/run/checkpoint.npz", "--pairs", good,
            "--output", out + "/metrics.json"]
codes = [cli.main(train), cli.main(evaluate),
         cli.main(["train", "--pairs", bad, "--out", out + "/bad", "--steps", "2"])]
print(locale.getpreferredencoding(False), *codes)
"""


def test_text_files_are_utf8_in_any_locale(tmp_path):
    # Under the C locale without UTF-8 mode, the locale encoding is ASCII: a
    # valid UTF-8 CSV must still read, and write the bytes a UTF-8 run writes.
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    rows = "id_x,id_y,nso_xy,nso_yx\r\n\u00e9,a,0.5,0.25\r\na,b,0.75,0.5\r\n"
    good.write_bytes(rows.encode("utf-8"))
    bad.write_bytes(rows.encode("latin-1"))
    written = {}
    for utf8_mode in ("0", "1"):
        out = tmp_path / f"utf8-{utf8_mode}"
        out.mkdir()
        stdout, stderr = run_python(LOCALE_RUN, good, bad, out, LC_ALL="C",
                                    PYTHONUTF8=utf8_mode, PYTHONCOERCECLOCALE="0")
        encoding, *codes = stdout.split()
        assert ("utf" in encoding.lower()) == (utf8_mode == "1")
        assert codes == ["0", "0", "3"]
        assert stderr.startswith("error: unreadable CSV ") and stderr.count("\n") == 1
        assert str(bad) in stderr
        written[utf8_mode] = {path.relative_to(out): path.read_bytes()
                              for path in sorted(out.rglob("*")) if path.is_file()}
    assert written["0"] == written["1"]
    assert written["0"][Path("pairs.csv")] == good.read_bytes()
    assert len(written["0"]) == 5


# Runs query, eval and scale in one process; prints the scipy modules loaded.
SERVE_RUN = """
import sys
from boxoverlap import cli
ckpt, dataset, out = sys.argv[1:]
pairs = dataset + "/pairs.csv"
for argv in (["query", "--checkpoint", ckpt, "--query-id", "g000", "--dataset", dataset],
             ["query", "--checkpoint", ckpt, "--query-id", "g000", "--hard"],
             ["eval", "--checkpoint", ckpt, "--pairs", pairs],
             ["scale", "--checkpoint", ckpt, "--pairs", pairs, "--dataset", dataset]):
    assert cli.main([*argv, "--output", out]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_query_eval_and_scale_do_not_import_scipy(run_dir, dataset, tmp_path):
    stdout, stderr = run_python(SERVE_RUN, run_dir / "checkpoint.npz", dataset,
                                tmp_path / "out")
    assert (stdout, stderr) == ("[]\n", "")


# -- fuzzed contract -----------------------------------------------------------

# Values a mutated scene.json field, checkpoint config field or CSV cell takes.
ODD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, -0.5, 1e308, 5e-324,
                               2 ** 64])
JSON_VALUES = st.one_of(st.none(), st.booleans(), ODD_NUMBERS, st.integers(-3, 300),
                        st.floats(), st.text(max_size=6),
                        st.lists(st.floats(-2.0, 2.0), max_size=10))
NON_ASCII = st.text(st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
                    min_size=1, max_size=4)
CELLS = st.one_of(st.text(max_size=6), NON_ASCII,
                  st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.5", "1.5", "1e309",
                                   "g000", "g001", ""]))
DEPTHS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 3.4e38, 1e-45]),
                   st.floats(width=32))
FLAG_VALUES = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.5", "-7"])

# The inputs each command reads, by kind.
READERS = {
    "scene": ["nso", "nso-pairs", "query", "scale"],
    "depth": ["nso", "nso-pairs", "query", "scale"],
    "overlaps": ["train", "eval"],
    "id-pairs": ["nso-pairs", "scale"],
    "checkpoint": ["eval", "query", "scale"],
    "flag": ["synth", "nso", "train", "query"],
    "non-ascii-id": ["train", "eval", "nso-pairs", "scale"],
}


def fuzz_argv(root: Path, command: str) -> list:
    """A run of `command` on the inputs under root: a copy of a grid:2
    dataset, its checkpoint and an id-pair CSV. It starts one thread and at
    most 20 steps."""
    ds, ckpt, ids = root / "ds", root / "checkpoint.npz", root / "ids.csv"
    return [str(arg) for arg in {
        "synth": ["synth", "--out", root / "new", "--pattern", "grid:2"],
        "nso": ["nso", "--dataset", ds, "--output", root / "out.csv"],
        "nso-pairs": ["nso", "--dataset", ds, "--pairs", ids, "--output", root / "out.csv"],
        "train": ["train", "--pairs", ds / "pairs.csv", "--out", root / "run",
                  "--steps", "20"],
        "eval": ["eval", "--checkpoint", ckpt, "--pairs", ds / "pairs.csv"],
        "query": ["query", "--checkpoint", ckpt, "--query-id", "g000", "--dataset", ds],
        "scale": ["scale", "--checkpoint", ckpt, "--pairs", ids, "--dataset", ds],
    }[command]]


def mutate_csv(path: Path, data, cells, id_columns_only=False):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    row = data.draw(st.integers(0, len(rows) - 1))
    columns = 2 if id_columns_only else len(rows[row])
    rows[row][data.draw(st.integers(0, columns - 1))] = data.draw(cells)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def mutate(kind: str, root: Path, command: str, data) -> list:
    """Mutate one input of `kind` under root; the argv of the run."""
    argv = fuzz_argv(root, command)
    ds = root / "ds"
    if kind == "scene":
        doc = json.loads((ds / "scene.json").read_text(encoding="utf-8"))
        entry = data.draw(st.sampled_from(doc["views"]))
        field = data.draw(st.sampled_from(sorted(entry)))
        if data.draw(st.booleans()):
            entry[field] = data.draw(JSON_VALUES)
        else:
            del entry[field]
        (ds / "scene.json").write_text(json.dumps(doc), encoding="utf-8")
    elif kind == "depth":
        path = ds / data.draw(st.sampled_from(sorted(p.name for p in ds.glob("*.dpth"))))
        raw = bytearray(path.read_bytes())
        op = data.draw(st.sampled_from(["truncate", "byte", "pixel", "header"]))
        if op == "truncate":
            del raw[data.draw(st.integers(0, len(raw) - 1)):]
        elif op == "byte":
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        elif op == "pixel":
            at = 16 + 4 * data.draw(st.integers(0, (len(raw) - 16) // 4 - 1))
            raw[at:at + 4] = struct.pack("<f", data.draw(DEPTHS))
        else:  # a width or height the payload may not hold, checked before a read
            at = data.draw(st.sampled_from([4, 8]))
            raw[at:at + 4] = struct.pack("<I", data.draw(st.integers(0, 2 ** 32 - 1)))
        path.write_bytes(bytes(raw))
    elif kind == "overlaps":
        mutate_csv(ds / "pairs.csv", data, CELLS)
    elif kind == "id-pairs":
        mutate_csv(root / "ids.csv", data, CELLS)
    elif kind == "non-ascii-id":
        path = ds / "pairs.csv" if command in ("train", "eval") else root / "ids.csv"
        mutate_csv(path, data, NON_ASCII, id_columns_only=True)
    elif kind == "checkpoint":
        with np.load(root / "checkpoint.npz") as stored:
            fields = dict(stored)
        field = data.draw(st.sampled_from(sorted(fields)))
        if field == "config":
            config = json.loads(str(fields["config"]))
            config[data.draw(st.sampled_from(sorted(config) + ["extra"]))] = data.draw(
                JSON_VALUES)
            fields["config"] = json.dumps(config)
        elif field in ("kind", "ids"):
            fields[field] = data.draw(st.one_of(
                st.text(max_size=6), st.lists(st.sampled_from(["g000", "g001", "g002"]))))
        else:
            shape = data.draw(st.tuples(st.integers(0, 5), st.integers(0, 70)))
            values = data.draw(st.lists(st.one_of(ODD_NUMBERS, st.floats()).map(float),
                                        min_size=1, max_size=4))
            fields[field] = np.resize(np.array(values), shape)
        np.savez(root / "checkpoint.npz", **fields)
    else:  # a numeric flag: never above its default, so no run is larger
        flags = [flag for name, flag in NUMERIC_OPTIONS if name == argv[0]]
        argv.append(f"{data.draw(st.sampled_from(flags))}={data.draw(FLAG_VALUES)}")
    return argv


def finite(value) -> bool:
    """Whether every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(map(finite, value.values()))
    if isinstance(value, list):
        return all(map(finite, value))
    return not isinstance(value, float) or math.isfinite(value)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_inputs_keep_the_exit_contract(dataset, run_dir, data):
    # Each example mutates one input of a grid:2 run and runs one command in
    # process: it exits 0, 2 or 3 without raising; a failure prints one
    # `error:` line and nothing else, a success only finite numbers, and a
    # train that succeeds leaves outputs the other commands can read.
    kind = data.draw(st.sampled_from(sorted(READERS)))
    command = data.draw(st.sampled_from(READERS[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(dataset, root / "ds")
        shutil.copy(run_dir / "checkpoint.npz", root)
        (root / "ids.csv").write_text("id_x,id_y\ng000,g001\ng002,g003\n", encoding="utf-8")
        argv = mutate(kind, root, command, data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0 and argv[0] == "train":
            assert_train_outputs_usable(root / "run")
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and err.endswith("\n")
    else:
        assert err == ""
        # eval prints one indented document, query and scale one per line.
        lines = [out] if argv[0] == "eval" else out.splitlines()
        assert all(finite(json.loads(line)) for line in lines)


def assert_train_outputs_usable(run):
    """A train run that exits 0 leaves a loadable checkpoint, boxes in strict
    JSON (no NaN or Infinity token) and a finite loss trace."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    load_checkpoint(run / "checkpoint.npz")
    if (run / "boxes.json").exists():
        json.loads((run / "boxes.json").read_text(encoding="utf-8"), parse_constant=reject)
    with open(run / "loss_trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows and all(math.isfinite(float(loss)) for _, loss in rows)


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


# sha256 of the vector baseline's loss trace on the same grid, taken from the
# code before the training step shared one scatter for all its rows.
VECTOR_TRACE = "88965e05532c4468030439515ea196ee9acaf573e57f22b47938b96e8dbcdadb"


def test_vector_loss_trace_pinned(tmp_path):
    ds, run = tmp_path / "ds", tmp_path / "run"
    assert main(["synth", "--out", str(ds), "--pattern", "grid:3", "--seed", "5"]) == 0
    assert main(["train", "--pairs", str(ds / "pairs.csv"), "--out", str(run),
                 "--kind", "vector", "--steps", "300", "--seed", "5"]) == 0
    trace = (run / "loss_trace.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == VECTOR_TRACE
