"""Workloads, timed stages and output checks of the boxoverlap benchmark.

Every workload runs the same stages on its own inputs, so each one reports
every metric and calls every module:

1. set-up (repeated, median reported): seeded inputs and a warm-up on a
   two-view slice of the capture;
2. pipeline (fixed work; repeated until PIPELINE_MIN_S is timed, medians
   reported): render the capture, write the dataset, all-pairs NSO,
   pairs.csv round trip, box training, checkpoint, evaluate, index build and
   a smoothed top-k for every view;
3. serve (--seconds of wall time, at least MIN_SAMPLES queries of each
   kind): one closed-loop client alternates hard and smoothed top-k queries
   for gallery members, each with relation labels and scale, and rebuilds
   the index every REBUILD_EVERY query pairs;
4. probes: backprojection per view, fixed-shape box kernels and in-process
   `boxoverlap query` calls;
5. checks, outside every timed region: sampled NSO pairs against the
   brute-force oracle, every timed top-k against the exhaustive scan, NSO
   values in [0, 1], finite training loss, `boxoverlap eval` agreeing with
   `evaluate`, and `boxoverlap query` agreeing with the exhaustive scan.

Only the benchmark's own calls into each module's public functions are
timed; nothing inside the program is instrumented. Times are taken on
Speed.now() and scaled to a nominal machine speed (see speed.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from boxoverlap import boxes, cli, dataset_io, geometry, retrieval, synth, training
from boxoverlap.boxes import HARD, SmoothingConfig
from boxoverlap.geometry import NSOConfig
from boxoverlap.training import EmbeddingTable, PairDataset, TrainConfig

import spans
from speed import PARTS, Speed

# The NSO entry point may move from synth into geometry; follow it.
all_pairs_nso = getattr(geometry, "all_pairs_nso", None) or synth.all_pairs_nso

LAYERS = ("synth", "geometry", "dataset_io", "boxes", "training", "retrieval", "cli")
# Reference parts doing the same kind of work as a timed call; others: PARTS.
KIND = {
    "geometry.all_pairs_nso": ("tree",),
    "retrieval.build": ("tree",),
    "training.train": ("small",),
    "bench.query": ("small",),
    "bench.query_large": ("boxes",),  # a top-k over a gallery of LARGE_GALLERY or more
}
LARGE_GALLERY = 1000

K = 10
SMOOTH = SmoothingConfig(TrainConfig().rho)  # what `boxoverlap query` ranks with
KINDS = (("hard", HARD), ("smooth", SMOOTH))
MIN_SAMPLES = 1000  # per query kind, so p99 has ten samples beyond it
REBUILD_EVERY = 64
SERVE_POOL = 512  # distinct query ids, bounding the exhaustive checks
SETUP_REPS = 3
PIPELINE_MIN_S = 6.0
ORACLE_PAIRS = 3  # per class: overlapping and disjoint pairs
CLI_QUERIES = 3
GRAD_CALLS = 200
NBO_CALLS = 30
NONZERO_QUERIES = 32


@dataclass(frozen=True)
class Workload:
    name: str
    script: Callable[[int], synth.CameraScript]  # capture to render, from the seed
    train_steps: int
    gallery_size: int  # 0 serves the trained table; else that many random boxes


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("survey-dense96", synth.default_script, 3000, 0),
        Workload("groundtruth-sparse",
                 lambda seed: synth.grid_script(8, seed, spacing=6.0), 1500, 0),
        Workload("gallery-5000", lambda seed: synth.grid_script(4, seed), 1000, 5000),
    )
}


def small(workload: Workload) -> Workload:
    """A seconds-long version of a workload for the smoke check."""
    def script(seed):
        return synth.CameraScript(workload.script(seed).placements[:9])
    return replace(workload, script=script, train_steps=100,
                   gallery_size=min(workload.gallery_size, 500))


@dataclass
class Inputs:
    surface: object
    script: synth.CameraScript
    gallery: EmbeddingTable | None = None
    gallery_counts: dict | None = None


def random_gallery(n: int, seed: int):
    """n random D=32 boxes and valid-pixel counts, as in acceptance 9."""
    rng = np.random.default_rng(seed)
    dim = TrainConfig().dim
    centers = rng.normal(0.0, 2.0, size=(n, dim))
    size_raws = rng.normal(1.0, 1.0, size=(n, dim))
    ids = [f"b{i:04d}" for i in range(n)]
    table = EmbeddingTable("box", ids, np.hstack([centers, size_raws]))
    counts = dict(zip(ids, rng.integers(1536, 3073, size=n).tolist()))
    return table, counts


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ms(seconds: float) -> float:
    return 1e3 * seconds


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 min_samples: int, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.min_samples = min_samples
        self.speed = Speed()
        self.tracer = spans.Tracer(trace, self.speed.now)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.count = {"oracle_pairs": 0, "oracle_mismatches": 0,
                      "exhaustive_mismatches": 0}
        self._exact = {}

    # -- timing ---------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Timed call into the program; returns (result, (start, end))."""
        start = self.speed.now()
        out = fn(*args, **kwargs)
        end = self.speed.now()
        self.tracer.record(name, start, end)
        return out, (start, end)

    def seconds_in(self, name, window) -> float:
        """Time of a window, scaled by the reference sampled during and next to it."""
        start, end = window
        return (end - start) * self.speed.scale(KIND.get(name, PARTS), start, end)

    def query(self, index, table, qid, kind, cfg, counts):
        """One request: top-k, then a relation label and scale per result."""
        start = self.speed.now()
        results = index.query_topk(table.box(qid), K, cfg)
        ranked = self.speed.now()
        for res in results:
            retrieval.classify_relation(res.enclosure, res.concentration)
            if res.enclosure > 0:
                retrieval.estimate_scale(res.enclosure, res.concentration,
                                         counts[qid], counts[res.id])
        end = self.speed.now()
        request = self.tracer.record("bench.query", start, end)
        self.tracer.record(f"retrieval.topk_{kind}", start, ranked, request)
        self.tracer.record("retrieval.label", ranked, end, request)
        return results, (start, end)

    def exact(self, index, table, qid, kind, cfg):
        key = (qid, kind)
        if key not in self._exact:
            self._exact[key] = index.query_topk_exhaustive(table.box(qid), K, cfg)
        return self._exact[key]

    def check_topk(self, index, table, qid, kind, cfg, results, times=1):
        """Check an answer given `times` times against the exhaustive scan."""
        if list(results) != self.exact(index, table, qid, kind, cfg):
            self.failed += times
            self.count["exhaustive_mismatches"] += times

    # -- stages ---------------------------------------------------------------

    def set_up(self) -> Inputs:
        surface = synth.default_surface(self.seed)
        script = self.workload.script(self.seed)
        inputs = Inputs(surface, script)
        tables = []
        if self.workload.gallery_size:
            inputs.gallery, inputs.gallery_counts = random_gallery(
                self.workload.gallery_size, self.seed)
            training.save_checkpoint(self.work / "gallery.npz", inputs.gallery,
                                     TrainConfig(seed=self.seed), step=0)
            tables.append(inputs.gallery)
        # Free one 24 MiB block so glibc's dynamic mmap threshold sits near its
        # ceiling, as in any process that has freed a large array. Otherwise
        # whether every large temporary is page-faulted afresh depends on the
        # seed's allocation history, which moves a smoothed top-k over 5000
        # boxes between about 4 and 8 ms.
        np.ones(3 << 20).sum()
        # Warm-up: lazy imports and first-call costs of every timed path.
        two = synth.CameraScript(script.placements[:2])
        views = synth.render_script(surface, two, self.seed).views
        records = all_pairs_nso(views, NSOConfig(seed=self.seed))
        cfg = TrainConfig(seed=self.seed, steps=10)
        table, _ = training.train(PairDataset(records), cfg)
        training.evaluate(table, records, cfg)
        for tab in [table, *tables]:
            index = retrieval.BoxIndex.build(tab)
            for _, smoothing in KINDS:
                index.query_topk_exhaustive(tab.box(tab.ids[0]), K, smoothing)
                index.query_topk(tab.box(tab.ids[0]), K, smoothing)
        return inputs

    def pipeline(self, inputs: Inputs) -> dict:
        seed = self.seed
        dataset = self.work / "dataset"
        pairs_csv = dataset / "pairs.csv"
        ckpt = self.work / "checkpoint.npz"
        nso_cfg = NSOConfig(seed=seed)
        cfg = TrainConfig(seed=seed, steps=self.workload.train_steps)
        timed = {}
        with self.tracer.stage("bench.pipeline"):
            scene, timed["synth.render_script"] = self.call(
                "synth.render_script", synth.render_script, inputs.surface, inputs.script, seed)
            views = scene.views
            _, timed["dataset_io.write_scene"] = self.call(
                "dataset_io.write_scene", dataset_io.write_scene, dataset, views)
            records, timed["geometry.all_pairs_nso"] = self.call(
                "geometry.all_pairs_nso", all_pairs_nso, views, nso_cfg, threads=1)
            _, timed["dataset_io.write_overlaps"] = self.call(
                "dataset_io.write_overlaps", dataset_io.write_overlaps, pairs_csv, records)
            records, timed["dataset_io.read_overlaps"] = self.call(
                "dataset_io.read_overlaps", dataset_io.read_overlaps, pairs_csv)
            (table, loss), timed["training.train"] = self.call(
                "training.train", training.train, PairDataset(records), cfg)
            _, timed["training.save_checkpoint"] = self.call(
                "training.save_checkpoint", training.save_checkpoint, ckpt, table, cfg,
                cfg.steps)
            scores, timed["training.evaluate"] = self.call(
                "training.evaluate", training.evaluate, table, records, cfg)
            index, timed["retrieval.build"] = self.call(
                "retrieval.build", retrieval.BoxIndex.build, table)
            counts = {v.id: v.n_valid for v in views}
            answers = [(v.id, *self.query(index, table, v.id, "smooth", SMOOTH, counts))
                       for v in views]
        # The pipeline's calls and per-view queries, each scaled on its own.
        pipeline_s = (sum(self.seconds_in(name, w) for name, w in timed.items())
                      + sum(self.seconds_in("bench.query", w) for _, _, w in answers))
        # pipeline calls but all_pairs_nso, NSO pairs and per-view queries
        self.attempted += len(timed) - 1 + len(records) + len(views)

        bad = sum(not (0.0 <= r.nso_xy <= 1.0 and 0.0 <= r.nso_yx <= 1.0)
                  for r in records)
        self.failed += bad + int(not np.all(np.isfinite(loss)))
        for qid, results, _ in answers:
            self.check_topk(index, table, qid, "smooth", SMOOTH, results)
        metrics_json = self.work / "metrics.json"
        self.attempted += 1
        code = cli.main(["eval", "--checkpoint", str(ckpt), "--pairs", str(pairs_csv),
                         "--output", str(metrics_json)])
        if code != 0 or json.loads(metrics_json.read_text()) != scores:
            self.failed += 1
        return {
            "views": views, "records": records, "nso_cfg": nso_cfg, "table": table,
            "counts": counts, "loss": loss, "scores": scores, "steps": cfg.steps,
            "pipeline_s": pipeline_s,
            "nso_s": self.seconds_in("geometry.all_pairs_nso", timed["geometry.all_pairs_nso"]),
            "train_s": self.seconds_in("training.train", timed["training.train"]),
            "dataset": dataset, "ckpt": ckpt,
            "bytes_written": sum(p.stat().st_size for p in dataset.iterdir()),
            "sha256": {"pairs.csv": digest(pairs_csv), "metrics.json": digest(metrics_json)},
        }

    def serve(self, table, counts) -> dict:
        latency = {kind: [] for kind, _ in KINDS}  # (start, end) per query
        builds = []
        # How often each query id got each distinct answer, per kind; checked
        # against the exhaustive scan after the timed loop.
        answers = {kind: defaultdict(Counter) for kind, _ in KINDS}
        rng = np.random.default_rng(self.seed)
        order = [table.ids[i] for i in rng.permutation(len(table.ids))[:SERVE_POOL]]
        n = 0
        stopped = False
        until = time.perf_counter() + self.seconds
        with self.tracer.stage("bench.serve"):
            while not stopped and (time.perf_counter() < until
                                   or min(map(len, latency.values())) < self.min_samples):
                if n % REBUILD_EVERY == 0:
                    index, window = self.call("retrieval.build",
                                              retrieval.BoxIndex.build, table)
                    self.attempted += 1
                    builds.append(window)
                qid = order[n % len(order)]
                n += 1
                for kind, cfg in KINDS:
                    self.attempted += 1
                    try:
                        results, window = self.query(index, table, qid, kind, cfg, counts)
                    except ValueError:
                        self.failed += 1
                        stopped = True
                        break
                    latency[kind].append(window)
                    answers[kind][qid][tuple(results)] += 1
        for kind, cfg in KINDS:
            for qid, given in answers[kind].items():
                for results, times in given.items():
                    self.check_topk(index, table, qid, kind, cfg, results, times)
        return {"latency": latency, "builds": builds, "order": order}

    def probes(self, views, table, ckpt, dataset, order) -> dict:
        rng = np.random.default_rng(self.seed)
        dim = TrainConfig().dim

        def params(b):
            return rng.normal(0.0, 2.0, size=(b, dim)), rng.normal(1.0, 1.0, size=(b, dim))

        with self.tracer.stage("bench.probe"):
            clouds = {v.id: self.call("geometry.backproject", geometry.backproject, v)[0]
                      for v in views}
            pair = (*params(32), *params(32))
            for _ in range(GRAD_CALLS):
                self.call("boxes.nbo_grad_batch", boxes.nbo_grad_batch, *pair, SMOOTH)
            gallery = (*params(5000), *params(5000))
            for _ in range(NBO_CALLS):
                self.call("boxes.nbo_batch", boxes.nbo_batch, *gallery, SMOOTH)
            index = retrieval.BoxIndex.build(table)
            answer = self.work / "query.jsonl"
            with_dataset = ["--dataset", str(dataset)] if dataset else []
            for qid in order[:CLI_QUERIES]:
                self.attempted += 1
                argv = ["query", "--checkpoint", str(ckpt), "--query-id", qid,
                        "--k", str(K), "--output", str(answer), *with_dataset]
                code, _ = self.call("cli.query", cli.main, argv)
                got = [json.loads(line)["retrieved_id"]
                       for line in answer.read_text().splitlines()] if code == 0 else None
                want = [r.id for r in self.exact(index, table, qid, "smooth", SMOOTH)]
                if got != want:
                    self.failed += 1
        nonzero = []
        for qid in order[:NONZERO_QUERIES]:
            full = index.query_topk_exhaustive(table.box(qid), len(table.ids), HARD)
            nonzero.append(sum(r.enclosure > 0 for r in full) / len(table.ids))
        return {"clouds": clouds, "hard_nonzero_share": float(np.mean(nonzero))}

    def check_nso(self, records, clouds, cfg):
        """Sampled overlapping and disjoint pairs against the brute-force oracle."""
        rng = np.random.default_rng(self.seed)
        overlapping = [r for r in records if r.nso_xy > 0 or r.nso_yx > 0]
        disjoint = [r for r in records if not (r.nso_xy > 0 or r.nso_yx > 0)]
        for group in (overlapping, disjoint):
            if not group:
                continue
            for i in rng.choice(len(group), min(ORACLE_PAIRS, len(group)), replace=False):
                rec = group[i]
                ref = geometry.nso_from_clouds(clouds[rec.id_x], clouds[rec.id_y],
                                               rec.id_x, rec.id_y, cfg, brute_force=True)
                self.count["oracle_pairs"] += 1
                if (ref.nso_xy, ref.nso_yx) != (rec.nso_xy, rec.nso_yx):
                    self.count["oracle_mismatches"] += 1
                    self.failed += 1


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
        min_samples: int = MIN_SAMPLES, import_s: float = 0.0):
    """Run one workload; returns (result, context, tracer).

    import_s, the time the process took to import the program, counts into
    setup_s.
    """
    bench = Bench(workload, seed, seconds, min_samples, trace, work)
    speed, tracer = bench.speed, bench.tracer
    with speed.sampling():
        setups = []
        for _ in range(SETUP_REPS):
            start = speed.now()
            with tracer.stage("bench.setup"):
                inputs = bench.set_up()
            setups.append((start, speed.now()))

        measured_from, wall_from = speed.now(), time.perf_counter()
        pipes = [bench.pipeline(inputs)]
        while sum(p["pipeline_s"] for p in pipes) < PIPELINE_MIN_S:
            pipes.append(bench.pipeline(inputs))
        pipe = pipes[-1]
        if inputs.gallery is not None:
            table, counts, ckpt, dataset = (inputs.gallery, inputs.gallery_counts,
                                            work / "gallery.npz", None)
        else:
            table, counts, ckpt, dataset = (pipe["table"], pipe["counts"], pipe["ckpt"],
                                            pipe["dataset"])
        served = bench.serve(table, counts)
        probe = bench.probes(pipe["views"], table, ckpt, dataset, served["order"])
        cpu, wall = speed.now() - measured_from, time.perf_counter() - wall_from
    bench.check_nso(pipe["records"], probe["clouds"], pipe["nso_cfg"])

    records = pipe["records"]
    latency = served["latency"]
    builds = served["builds"]
    # The serve stage repeats its requests: query order[i % len(order)] at
    # place i % REBUILD_EVERY after an index rebuild.
    cycle = math.lcm(len(served["order"]), REBUILD_EVERY)
    samples = {
        "setup": len(setups), "pipeline": len(pipes),
        "nso_pairs": len(records), "train_steps": pipe["steps"],
        "eval_pairs": len(records), "query_hard": len(latency["hard"]),
        "query_smooth": len(latency["smooth"]), "index_build": len(builds),
        "query_distinct": cycle, "query_repeats": len(latency["hard"]) // cycle,
    }
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {},
    }
    run_scale = speed.scale()
    context = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "samples": samples, "sha256": pipe["sha256"], "cpu_s": cpu, "wall_s": wall,
        "speed": {"samples": len(speed.times), "reference_ms": speed.median_ms(),
                  "run_scale": run_scale},
    }
    if bench.failed and not all(latency.values()):
        return result, context, tracer

    def per_rep(key):
        return statistics.median(p[key] for p in pipes)

    if not trace:
        query = "bench.query_large" if len(table.ids) >= LARGE_GALLERY else "bench.query"

        def p50(name, windows):
            return _ms(statistics.median(bench.seconds_in(name, w) for w in windows))

        def p99(name, windows):
            """p99 over the requests, each taken at the median time of the
            requests identical to it (the same query at the same place in the
            rebuild cycle). The tail of raw request times is set by the host's
            other work, which varies between runs far more than the program's
            own slow requests do; costly queries and the first query after a
            rebuild keep their place in this tail."""
            took = [bench.seconds_in(name, w) for w in windows]
            slots = [statistics.median(took[s::cycle]) for s in range(min(cycle, len(took)))]
            return _ms(float(np.percentile(slots, 99)))

        setup_s = (import_s + statistics.median(end - start for start, end in setups)) \
            * speed.scale(PARTS, setups[0][0], setups[-1][1])
        result["metrics"] = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ops_ok_share": (1.0 - bench.failed / bench.attempted, "share"),
            "pipeline_s": (per_rep("pipeline_s"), "s"),
            "nso_pairs_per_s": (len(records) / per_rep("nso_s"), "pairs/s"),
            "train_steps_per_s": (pipe["steps"] / per_rep("train_s"), "steps/s"),
            "acc_at_0.1": (pipe["scores"]["acc_at_0.1"], "share"),
            "l1_norm": (pipe["scores"]["l1_norm"], "overlap"),
            "query_hard_p50_ms": (p50(query, latency["hard"]), "ms"),
            "query_hard_p99_ms": (p99(query, latency["hard"]), "ms"),
            "query_smooth_p50_ms": (p50(query, latency["smooth"]), "ms"),
            "query_smooth_p99_ms": (p99(query, latency["smooth"]), "ms"),
            "index_build_ms": (p50("retrieval.build", builds), "ms"),
        }
        return result, context, tracer

    # Per-layer times are scaled by the reference over the whole run.
    def median(name):
        return run_scale * statistics.median(
            end - start for n, start, end, _ in tracer.spans if n == name)

    n_views = len(pipe["views"])
    disjoint = sum(not (r.nso_xy > 0 or r.nso_yx > 0) for r in records)
    self_s = tracer.self_seconds()
    overhead = spans.seconds_per_span() * len(tracer.spans)
    metrics = {
        "synth.render_ms_per_view": (_ms(median("synth.render_script")) / n_views, "ms"),
        "synth.views": (n_views, "count"),
        "geometry.backproject_ms_per_view": (_ms(median("geometry.backproject")), "ms"),
        "geometry.surfels": (sum(len(c) for c in probe["clouds"].values()), "count"),
        "geometry.nso_pair_ms": (_ms(per_rep("nso_s")) / len(records), "ms"),
        "geometry.pairs": (len(records), "count"),
        "geometry.pairs_disjoint_share": (disjoint / len(records), "share"),
        "geometry.oracle_pairs_checked": (bench.count["oracle_pairs"], "count"),
        "geometry.oracle_mismatches": (bench.count["oracle_mismatches"], "count"),
        "dataset_io.write_scene_ms": (_ms(median("dataset_io.write_scene")), "ms"),
        "dataset_io.overlaps_rw_ms": (_ms(median("dataset_io.write_overlaps")
                                          + median("dataset_io.read_overlaps")), "ms"),
        "dataset_io.bytes_written": (pipe["bytes_written"], "bytes"),
        "boxes.grad_batch_us": (1e6 * median("boxes.nbo_grad_batch"), "us"),
        "boxes.nbo_batch_us": (1e6 * median("boxes.nbo_batch"), "us"),
        "training.step_us": (1e6 * per_rep("train_s") / pipe["steps"], "us"),
        "training.steps": (pipe["steps"], "count"),
        "training.final_loss": (float(pipe["loss"][-1]), "loss"),
        "training.evaluate_ms": (_ms(median("training.evaluate")), "ms"),
        "training.eval_pairs": (len(records), "count"),
        "training.checkpoint_ms": (_ms(median("training.save_checkpoint")), "ms"),
        "retrieval.build_ms": (_ms(median("retrieval.build")), "ms"),
        "retrieval.topk_hard_us": (1e6 * median("retrieval.topk_hard"), "us"),
        "retrieval.topk_smooth_us": (1e6 * median("retrieval.topk_smooth"), "us"),
        "retrieval.label_us": (1e6 * median("retrieval.label"), "us"),
        "retrieval.hard_nonzero_share": (probe["hard_nonzero_share"], "share"),
        "retrieval.exhaustive_mismatches": (bench.count["exhaustive_mismatches"], "count"),
        "cli.query_ms": (_ms(median("cli.query")), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (_ms(self_s.get(layer, 0.0) * run_scale), "ms")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_ms"] = (_ms(overhead * run_scale), "ms")
    metrics["trace.overhead_share"] = (overhead / cpu, "share")
    result["metrics"] = metrics
    return result, context, tracer
