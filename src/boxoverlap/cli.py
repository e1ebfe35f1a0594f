"""Command-line entry point.

Subcommands compose into a pipeline:

    synth -> nso -> train -> eval / query / scale

Exit codes: 0 success, 2 usage or configuration error, 3 I/O or data error.
`main` is the one place a failure, parse errors included, becomes an exit
code and one `error:` line on stderr; only `--help` exits through argparse.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import stat
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import boxes, dataset_io, retrieval, synth
from .boxes import SmoothingConfig
from .geometry import NSOConfig, OracleMismatchError, all_pairs_nso, pairs_nso
from .training import (
    PairDataset,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

# The line breaks of str.splitlines, escaped: an error message stays one line.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose parse errors raise UsageError for main to report."""

    def error(self, message):
        raise UsageError(message)


def _nso_config(args) -> NSOConfig:
    return NSOConfig(
        radius=args.radius,
        n_sub=args.n_sub,
        seed=args.seed,
        weighted=not args.unweighted,
    )


def _check_ids(ids, known, path=None):
    """UsageError naming the first id not in `known`, and the file that named
    it (the CSV asking for it, or the scene.json lacking it)."""
    for img_id in ids:
        if img_id not in known:
            where = f" in {path}" if path else ""
            raise UsageError(f"unknown image id{where}: {img_id}")


def _os_error(cls, code: int, path) -> OSError:
    return cls(code, os.strerror(code), str(path))


def _check_file_output(path) -> None:
    """Raise the OSError that opening `path` for writing would raise when its
    directory is missing or not a directory, or it names a directory: a
    command checks its output before its work, so it fails as it would
    after it without doing that work."""
    try:
        mode = os.stat(os.path.dirname(path) or ".").st_mode
    except OSError as exc:
        raise _os_error(type(exc), exc.errno, path) from None
    if not stat.S_ISDIR(mode):
        raise _os_error(NotADirectoryError, errno.ENOTDIR, path)
    if os.path.isdir(path):
        raise _os_error(IsADirectoryError, errno.EISDIR, path)


def _check_dir_output(path, names) -> None:
    """Raise the OSError that making the directory `path` with its missing
    parents, then writing the files `names` in it, would raise: where a file
    is in the way, or one of the names is a directory."""
    path = Path(path)
    if not path.exists():
        if not next(up for up in path.parents if up.exists()).is_dir():
            raise _os_error(NotADirectoryError, errno.ENOTDIR, path)
    elif not path.is_dir():
        raise _os_error(FileExistsError, errno.EEXIST, path)
    else:
        for name in names:
            _check_file_output(path / name)


def cmd_synth(args) -> int:
    synth.generate_dataset(
        synth.default_surface(args.seed), args.pattern(args.seed), args.out, args.seed,
        nso_cfg=_nso_config(args), oracle=args.oracle, threads=args.threads,
    )
    return EXIT_OK


def cmd_nso(args) -> int:
    views = dataset_io.read_scene(args.dataset)
    cfg = _nso_config(args)
    if args.pairs:
        # One output row per pair: train rejects a pairs.csv that repeats one.
        wanted = dataset_io.read_id_pairs(args.pairs, distinct=True)
        _check_ids((i for pair in wanted for i in pair), {v.id for v in views}, args.pairs)
        _check_file_output(args.output)
        records = pairs_nso(views, wanted, cfg, oracle=args.oracle,
                            threads=args.threads)
    else:
        _check_file_output(args.output)
        records = all_pairs_nso(views, cfg, oracle=args.oracle,
                                threads=args.threads)
    dataset_io.write_overlaps(args.output, records)
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        dim=args.dim, rho=args.rho, lr=args.lr, steps=args.steps,
        batch_size=args.batch_size, seed=args.seed,
    )


def cmd_train(args) -> int:
    records = dataset_io.read_overlaps(args.pairs)
    dataset = PairDataset(records)
    cfg = _train_config(args)
    out = Path(args.out)
    _check_dir_output(out, ["checkpoint.npz"] + ["boxes.json"] * (args.kind == "box")
                      + ["loss_trace.csv"])
    table, trace = train(dataset, cfg, kind=args.kind)
    if table.kind == "box":  # before any file is written
        box_json = boxes.box_table_to_json(table.ids, *table.bounds())
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.npz", table, cfg, step=cfg.steps)
    if table.kind == "box":
        (out / "boxes.json").write_text(box_json, encoding="utf-8")
    with open(out / "loss_trace.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in enumerate(trace):
            writer.writerow([step, repr(float(loss))])
    return EXIT_OK


def _load_checkpoint(path, box=False):
    """(table, cfg) of a checkpoint. A file that is not a readable checkpoint
    is a data error; with box=True, a table of another kind is a usage error."""
    try:
        table, cfg = load_checkpoint(path)
    except (ValueError, KeyError, TypeError, RecursionError, zipfile.BadZipFile,
            EOFError) as exc:
        raise dataset_io.DatasetFormatError(f"not a valid checkpoint {path}: {exc}") from None
    if box and table.kind != "box":
        raise UsageError(f"a box-kind checkpoint is required, {path} is {table.kind}-kind")
    return table, cfg


def _write_lines(path, lines):
    """Each line and a newline to the file at path, or to stdout without one."""
    text = "".join(line + "\n" for line in lines)
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    table, cfg = _load_checkpoint(args.checkpoint)
    records = dataset_io.read_overlaps(args.pairs)
    _check_ids((i for r in records for i in (r.id_x, r.id_y)), table.row, args.pairs)
    metrics = evaluate(table, records, cfg)
    _write_lines(args.output, [json.dumps(metrics, indent=2, sort_keys=True)])
    return EXIT_OK


def _pixel_counts(args, ids):
    """Valid-pixel count per id from --dataset; None without one (no scale)."""
    if args.dataset:
        views = {v.id: v for v in dataset_io.read_scene(args.dataset)}
        _check_ids(ids, views, Path(args.dataset) / "scene.json")
        return {img_id: views[img_id].n_valid for img_id in ids}
    return None


def _scale(counts, id_x, id_y, nbo_xy, nbo_yx):
    """estimate_scale from the pixel counts; None without counts or overlap."""
    if counts is None or not nbo_xy > 0:
        return None
    return retrieval.estimate_scale(nbo_xy, nbo_yx, counts[id_x], counts[id_y])


def cmd_query(args) -> int:
    table, cfg = _load_checkpoint(args.checkpoint, box=True)
    _check_ids([args.query_id], table.row)
    smoothing = SmoothingConfig(0.0 if args.hard else cfg.rho)
    query = table.box(args.query_id)
    # The query box's volume divides every enclosure; checked here to name the id.
    boxes.check_volume(boxes.volumes(query.lower, query.upper, smoothing), args.query_id)
    results = retrieval.BoxIndex.build(table).query_topk(query, args.k, smoothing)
    counts = _pixel_counts(args, [args.query_id] + [r.id for r in results])
    _write_lines(args.output, (json.dumps({
        "query_id": args.query_id,
        "retrieved_id": res.id,
        "enclosure": res.enclosure,
        "concentration": res.concentration,
        "score": res.score,
        "relation": retrieval.classify_relation(res.enclosure, res.concentration).label,
        "scale": _scale(counts, args.query_id, res.id, res.enclosure, res.concentration),
    }, sort_keys=True) for res in results))
    return EXIT_OK


def cmd_scale(args) -> int:
    table, cfg = _load_checkpoint(args.checkpoint, box=True)
    pairs = dataset_io.read_id_pairs(args.pairs)
    ids = sorted({i for p in pairs for i in p})
    _check_ids(ids, table.row, args.pairs)
    counts = _pixel_counts(args, ids)
    preds = predict(table, pairs, cfg.smoothing).tolist()
    _write_lines(args.output, (json.dumps({
        "id_x": id_x, "id_y": id_y, "nbo_xy": xy, "nbo_yx": yx,
        "scale": _scale(counts, id_x, id_y, xy, yx),
    }, sort_keys=True) for (id_x, id_y), (xy, yx) in zip(pairs, preds)))
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _pattern(text: str):
    """argparse type: the camera script, by seed, of `default` or `grid:N`."""
    if text == "default":
        return synth.default_script
    kind, _, size = text.partition(":")
    if kind == "grid" and size.isdecimal() and int(size) >= 2:
        return lambda seed: synth.grid_script(int(size), seed=seed)
    raise argparse.ArgumentTypeError(f"unknown pattern {text!r} (use default or grid:N, N >= 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boxoverlap",
        description="Surface-overlap ground truth, box embeddings and retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_int_at_least(0), default=0)

    def add_geometry(p):
        p.add_argument("--threads", type=_int_at_least(1), default=1,
                       help="k-d tree query workers for NSO")
        p.add_argument("--radius", type=float, default=0.1)
        p.add_argument("--n-sub", type=int, default=5000)
        p.add_argument("--unweighted", action="store_true")
        p.add_argument("--oracle", action="store_true",
                       help="cross-check against the brute-force oracle")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--pattern", type=_pattern, default="default")
    add_common(p)
    add_geometry(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("nso", help="compute directed surface overlaps")
    p.add_argument("--dataset", required=True)
    p.add_argument("--pairs", help="CSV of id pairs; omit for all pairs")
    p.add_argument("--output", required=True)
    add_common(p)
    add_geometry(p)
    p.set_defaults(func=cmd_nso)

    p = sub.add_parser("train", help="fit embeddings to overlap pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("box", "vector"), default="box")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--rho", type=float, default=5.0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=40000)
    p.add_argument("--batch-size", type=int, default=32)
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics of a checkpoint against pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("query", help="top-k retrieval from a box checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--query-id", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--hard", action="store_true",
                   help="rank with hard (rho = 0) overlaps")
    p.add_argument("--dataset", help="dataset dir for true pixel counts")
    p.add_argument("--output")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("scale", help="relative scale estimates for id pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--dataset", help="dataset dir for true pixel counts")
    p.add_argument("--output")
    p.set_defaults(func=cmd_scale)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Commands that read a box checkpoint: a box volume too large for
        # float64 is inf, which predict and the query check reject where it
        # would divide an overlap, so numpy's overflow warnings would only
        # add lines to stderr.
        with np.errstate(over="ignore"):
            return args.func(args)
    except boxes.DegenerateBoxError as exc:  # only a checkpoint's boxes divide overlaps
        message, code = f"{exc} in checkpoint {args.checkpoint}", EXIT_IO
    except (dataset_io.DatasetFormatError, OracleMismatchError, OSError) as exc:
        message, code = exc, EXIT_IO
    # Each ValueError left is a usage error: an option value that NSOConfig,
    # TrainConfig or query_topk's k check rejects.
    except (UsageError, TrainingDivergedError, ValueError) as exc:
        message, code = exc, EXIT_USAGE
    # A size option (--steps, --dim, --batch-size, ...) beyond this machine.
    except MemoryError as exc:
        message, code = f"out of memory: {str(exc) or 'an allocation failed'}", EXIT_USAGE
    print(f"error: {str(message).translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
