"""Acceptance criteria for the full pipeline.

Each test covers one numbered criterion and emits a single PASS/FAIL line
(outside pytest's capture) so the verdict is readable straight from the
pytest log. Tolerances are stated inline next to each assertion.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from boxoverlap import dataset_io, synth
from boxoverlap.boxes import (
    HARD,
    BoxEmbedding,
    SmoothingConfig,
    nbo,
    sigma,
    softplus,
)
from boxoverlap.cli import main as cli_main
from boxoverlap.geometry import NSOConfig, OverlapRecord, backproject, compute_nso, nso_from_clouds
from boxoverlap.retrieval import BoxIndex, classify_relation, estimate_scale
from boxoverlap.training import (
    EmbeddingTable,
    PairDataset,
    TrainConfig,
    _box_batch_grad,
    evaluate,
    loss_box,
    predict_pair,
    train,
)


@contextlib.contextmanager
def criterion(capfd, number, description):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"[acceptance {number:2d}] FAIL - {description}")
        raise
    with capfd.disabled():
        print(f"[acceptance {number:2d}] PASS - {description}")


# -- shared artifacts (built once, lazily) ------------------------------------


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "dataset"
    surface = synth.default_surface(seed=7)
    script = synth.default_script(seed=7)
    synth.generate_dataset(surface, script, out, seed=7,
                           nso_cfg=NSOConfig(seed=7))
    return out


@pytest.fixture(scope="module")
def records(dataset_dir):
    return dataset_io.read_overlaps(dataset_dir / "pairs.csv")


@pytest.fixture(scope="module")
def views(dataset_dir):
    return dataset_io.read_scene(dataset_dir)


@pytest.fixture(scope="module")
def train_cfg():
    return TrainConfig(seed=7)


@pytest.fixture(scope="module")
def box_model(records, train_cfg):
    start = time.perf_counter()
    table, _ = train(PairDataset(records), train_cfg, kind="box")
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def vector_model(records, train_cfg):
    start = time.perf_counter()
    table, _ = train(PairDataset(records), train_cfg, kind="vector")
    return table, time.perf_counter() - start


# -- criteria ------------------------------------------------------------------


def test_acceptance_01_box_algebra_monte_carlo(capfd):
    with criterion(capfd, 1, "hard nbo matches 1e6-sample Monte-Carlo containment"):
        rng = np.random.default_rng(123)
        n_samples = 1_000_000
        start = time.perf_counter()
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            lo_x = rng.uniform(-2.0, 1.0, size=dim)
            bx = BoxEmbedding(lo_x, lo_x + rng.uniform(0.2, 2.0, size=dim))
            lo_y = rng.uniform(-2.0, 1.0, size=dim)
            by = BoxEmbedding(lo_y, lo_y + rng.uniform(0.2, 2.0, size=dim))
            p = nbo(bx, by, HARD)
            pts = rng.uniform(bx.lower, bx.upper, size=(n_samples, dim))
            frac = np.all((pts >= by.lower) & (pts <= by.upper), axis=1).mean()
            tol = 3.0 * math.sqrt(p * (1.0 - p) / n_samples)
            assert abs(frac - p) <= tol + 1e-12, (p, frac, tol)
        assert time.perf_counter() - start < 60.0


def test_acceptance_02_smoothing_limit(capfd):
    with criterion(capfd, 2, "sigma_smooth converges monotonically to max(0, v)"):
        v = np.round(np.arange(-1000, 1001) * 0.01, 2)
        hard = np.maximum(0.0, v)
        gaps = []
        for rho in (1.0, 0.1, 0.01, 0.001):
            gap = np.max(np.abs(sigma(v, SmoothingConfig(rho)) - hard))
            assert gap <= rho * math.log(2.0) + 1e-15
            gaps.append(gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 7e-3


def test_acceptance_03_gradient_correctness(capfd):
    with criterion(capfd, 3, "analytic loss gradient matches finite differences"):
        dim = 8
        cfg = TrainConfig(dim=dim, rho=5.0)
        rng = np.random.default_rng(7)
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            table = EmbeddingTable(
                "box", ["a", "b"], rng.normal(0.0, 1.5, size=(2, 2 * dim)))
            t_xy, t_yx = rng.uniform(0.0, 1.0, size=2)
            pair = OverlapRecord("a", "b", t_xy, t_yx)
            _, grad = _box_batch_grad(
                table, np.array([0]), np.array([1]),
                np.array([t_xy]), np.array([t_yx]), cfg)
            fd = np.zeros_like(table.params)
            for i in range(2):
                for j in range(2 * dim):
                    table.params[i, j] += h
                    up = loss_box(table, pair, cfg)
                    table.params[i, j] -= 2 * h
                    down = loss_box(table, pair, cfg)
                    table.params[i, j] += h
                    fd[i, j] = (up - down) / (2 * h)
            scale = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
            worst = max(worst, float(np.max(np.abs(grad - fd) / scale)))
        assert worst < 1e-4


def test_acceptance_04_nso_oracle_equivalence(capfd, views):
    with criterion(capfd, 4, "accelerated overlap equals brute-force oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        cfg = NSOConfig(seed=7)
        clouds = {}
        for _ in range(50):
            i, j = rng.choice(len(views), size=2, replace=False)
            vx, vy = views[i], views[j]
            for v in (vx, vy):
                if v.id not in clouds:
                    clouds[v.id] = backproject(v)
            fast = nso_from_clouds(clouds[vx.id], clouds[vy.id], vx.id, vy.id, cfg)
            ref = nso_from_clouds(clouds[vx.id], clouds[vy.id], vx.id, vy.id,
                                  cfg, brute_force=True)
            assert (fast.nso_xy, fast.nso_yx) == (ref.nso_xy, ref.nso_yx)
        assert time.perf_counter() - start < 300.0


def test_acceptance_05_box_beats_vector(capfd, records, train_cfg,
                                        box_model, vector_model):
    with criterion(capfd, 5, "box embeddings beat the symmetric vector baseline"):
        box_table, box_secs = box_model
        vector_table, vec_secs = vector_model
        assert box_secs + vec_secs < 600.0
        metrics = evaluate(box_table, records, train_cfg)
        assert metrics["acc_at_0.1"] >= 0.95, metrics
        assert metrics["l1_norm"] <= 0.05, metrics
        asym = [r for r in records if abs(r.nso_xy - r.nso_yx) >= 0.3]
        assert len(asym) >= 100
        box_acc = evaluate(box_table, asym, train_cfg)["acc_at_0.1"]
        vec_acc = evaluate(vector_table, asym, train_cfg)["acc_at_0.1"]
        assert box_acc - vec_acc >= 0.10, (box_acc, vec_acc)


def test_acceptance_06_asymmetric_floor(capfd):
    with criterion(capfd, 6, "asymmetric pair: box beats the symmetric L1 floor"):
        pair = OverlapRecord("a", "b", 1.0, 0.25)
        ds = PairDataset([pair])
        cfg = TrainConfig(dim=32, steps=5000, seed=0)
        box_table, _ = train(ds, cfg, kind="box")
        pred_xy, pred_yx = predict_pair(box_table, pair, cfg.smoothing)
        box_l1 = abs(1.0 - pred_xy) + abs(0.25 - pred_yx)
        assert box_l1 < 0.02

        # Any predictor that outputs one symmetric value v has summed
        # directed L1 |1 - v| + |0.25 - v| >= |1 - 0.25| = 0.75.
        floor = abs(pair.nso_xy - pair.nso_yx)
        assert floor == 0.75
        vec_table, _ = train(ds, cfg, kind="vector")
        v_xy, v_yx = predict_pair(vec_table, pair, cfg.smoothing)
        assert v_xy == v_yx
        vec_l1 = abs(1.0 - v_xy) + abs(0.25 - v_yx)
        assert abs(vec_l1 - floor) <= 0.05


def test_acceptance_07_scale_estimation(capfd, dataset_dir, views,
                                        box_model, train_cfg):
    with criterion(capfd, 7, "relative scale within 15% on synthetic zoom pairs"):
        box_table, _ = box_model
        meta = json.loads((dataset_dir / "relations.json").read_text())
        zooms = [e for e in meta["labeled_pairs"] if e["relation"] == "zoom-in"]
        assert len(zooms) == 8
        n_valid = {v.id: v.n_valid for v in views}
        smoothing = train_cfg.smoothing
        good = 0
        for entry in zooms:
            q, r, factor = entry["id_x"], entry["id_y"], entry["param"]
            qr = nbo(box_table.box(q), box_table.box(r), smoothing)
            rq = nbo(box_table.box(r), box_table.box(q), smoothing)
            s = estimate_scale(qr, rq, n_valid[q], n_valid[r])
            if abs(s - factor) / factor <= 0.15:
                good += 1
        assert good >= 7, good


def test_acceptance_08_relation_classification(capfd):
    with criterion(capfd, 8, "relation labels: reference values and generated pairs"):
        assert classify_relation(0.152, 0.831).label == "zoom-in"
        assert classify_relation(0.808, 0.887).label == "clone-like"
        assert classify_relation(0.853, 0.053).label == "zoom-out"

        cases = []
        for seed in range(8):
            cases.append(("clone", {"jitter": 0.05}, "clone-like", seed))
        for seed, f in enumerate((2.5, 3.0, 4.0, 2.5, 3.0, 4.0, 2.5, 3.0)):
            cases.append(("zoom", {"factor": f}, "zoom-in", seed))
        for seed in range(8):
            cases.append(("oblique", {}, "oblique-or-crop-out", seed))

        correct = 0
        for pattern, params, expected, seed in cases:
            vx, vy, _ = synth.make_pair(pattern, params, seed=seed)
            rec = compute_nso(vx, vy, NSOConfig(seed=seed))
            if classify_relation(rec.nso_xy, rec.nso_yx).label == expected:
                correct += 1
        assert correct / len(cases) >= 0.95, correct


def test_acceptance_09_index_exactness_and_speed(capfd):
    with criterion(capfd, 9, "index equals exhaustive scan and is >= 2x faster"):
        rng = np.random.default_rng(99)
        n, dim = 5000, 32
        centers = rng.normal(0.0, 2.0, size=(n, dim))
        sizes = softplus(rng.normal(1.0, 1.0, size=(n, dim)))
        index = BoxIndex([f"b{i:04d}" for i in range(n)],
                         centers - sizes / 2, centers + sizes / 2)
        queries = []
        for _ in range(100):
            lo = rng.normal(0.0, 2.0, size=dim)
            queries.append(BoxEmbedding(lo, lo + softplus(rng.normal(1.0, 1.0, size=dim))))

        fast = [index.query_topk(q, 10, HARD) for q in queries]
        slow = [index.query_topk_exhaustive(q, 10, HARD) for q in queries]
        assert fast == slow

        # Warmed up above; best of 3 passes shields the ratio from
        # scheduler noise within the larger suite.
        def best_of(fn, reps=3):
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                for q in queries:
                    fn(q, 10, HARD)
                times.append(time.perf_counter() - start)
            return min(times)

        t_index = best_of(index.query_topk)
        t_scan = best_of(index.query_topk_exhaustive)
        assert t_scan / t_index >= 2.0, (t_index, t_scan)


def test_acceptance_10_end_to_end_determinism(capfd, tmp_path):
    with criterion(capfd, 10, "synth -> nso -> train -> eval is byte-deterministic"):
        outputs = []
        for name in ("run1", "run2"):
            root = tmp_path / name
            ds = root / "ds"
            run = root / "run"
            common = ["--seed", "7"]
            nso_common = [*common, "--threads", "1"]
            assert cli_main(["synth", "--out", str(ds),
                             "--pattern", "grid:3", *nso_common]) == 0
            assert cli_main(["nso", "--dataset", str(ds),
                             "--output", str(root / "pairs.csv"), *nso_common]) == 0
            assert cli_main(["train", "--pairs", str(root / "pairs.csv"),
                             "--out", str(run), "--steps", "1500", *common]) == 0
            assert cli_main(["eval", "--checkpoint", str(run / "checkpoint.npz"),
                             "--pairs", str(root / "pairs.csv"),
                             "--output", str(root / "metrics.json")]) == 0
            outputs.append((
                (root / "pairs.csv").read_bytes(),
                (root / "metrics.json").read_bytes(),
            ))
        assert outputs[0] == outputs[1]
