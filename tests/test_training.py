import json
import math

import numpy as np
import pytest

from boxoverlap import boxes
from boxoverlap.boxes import HARD, DegenerateBoxError, SmoothingConfig, nbo
from boxoverlap.geometry import OverlapRecord
from boxoverlap.training import (
    EmbeddingTable,
    PairDataset,
    TrainConfig,
    TrainingDivergedError,
    _box_batch_grad,
    _vector_batch_grad,
    evaluate,
    load_checkpoint,
    loss_box,
    predict,
    predict_pair,
    save_checkpoint,
    train,
)


def box_table(ids, centers, size_raws):
    params = np.hstack([np.atleast_2d(centers), np.atleast_2d(size_raws)])
    return EmbeddingTable("box", ids, params)


def identical_pair_table(dim=4):
    row = np.concatenate([np.zeros(dim), np.ones(dim)])
    return EmbeddingTable("box", ["a", "b"], np.vstack([row, row]))


# -- datasets and helpers ------------------------------------------------------


def test_pair_dataset_collects_ids():
    ds = PairDataset([OverlapRecord("b", "a", 0.5, 0.5),
                      OverlapRecord("a", "c", 0.1, 0.2)])
    assert ds.ids == ["a", "b", "c"]
    assert len(ds) == 2


# -- losses --------------------------------------------------------------------


def test_loss_box_zero_for_perfect_prediction():
    table = identical_pair_table()
    pair = OverlapRecord("a", "b", 1.0, 1.0)
    assert loss_box(table, pair, TrainConfig(dim=4)) == 0.0


def test_loss_box_half_targets_identical_boxes():
    # Identical boxes predict (1, 1) for any rho; targets (0.5, 0.5).
    table = identical_pair_table()
    pair = OverlapRecord("a", "b", 0.5, 0.5)
    cfg = TrainConfig(dim=4, rho=1e-6)
    assert loss_box(table, pair, cfg) == pytest.approx(0.5, rel=1e-9)


def test_loss_box_unknown_id():
    table = identical_pair_table()
    with pytest.raises(KeyError):
        loss_box(table, OverlapRecord("a", "zzz", 0.5, 0.5), TrainConfig(dim=4))


def loss_vector(table, pair):
    """The vector loss of one pair: _vector_batch_grad on a batch of one."""
    xi, yi = np.array([table.row[pair.id_x]]), np.array([table.row[pair.id_y]])
    t_sym = np.array([0.5 * (pair.nso_xy + pair.nso_yx)])
    return _vector_batch_grad(table, xi, yi, t_sym, TrainConfig(dim=table.dim))[0]


def test_loss_vector_cases():
    same = EmbeddingTable("vector", ["a", "b"], np.zeros((2, 3)))
    assert loss_vector(same, OverlapRecord("a", "b", 1.0, 1.0)) == 0.0
    apart = EmbeddingTable("vector", ["a", "b"],
                           np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert loss_vector(apart, OverlapRecord("a", "b", 0.0, 0.0)) == 0.0
    assert loss_vector(same, OverlapRecord("a", "b", 0.5, 0.5)) == pytest.approx(0.25)


# -- training ------------------------------------------------------------------


def three_image_dataset():
    return PairDataset([
        OverlapRecord("a", "b", 1.0, 1.0),
        OverlapRecord("a", "c", 0.0, 0.0),
        OverlapRecord("b", "c", 0.0, 0.0),
    ])


def test_train_realizable_configuration():
    ds = three_image_dataset()
    cfg = TrainConfig(dim=8, steps=5000, seed=0)
    table, trace = train(ds, cfg)
    final = np.mean([loss_box(table, rec, cfg) for rec in ds.records])
    assert final < 1e-3
    assert np.all(np.isfinite(trace))


def test_train_self_pair_stays_perfect():
    ds = PairDataset([OverlapRecord("a", "a", 1.0, 1.0)])
    cfg = TrainConfig(dim=4, steps=200, seed=1)
    table, _ = train(ds, cfg)
    assert loss_box(table, ds.records[0], cfg) < 1e-6


def test_train_asymmetric_pair_box_fits():
    ds = PairDataset([OverlapRecord("a", "b", 1.0, 0.25)])
    cfg = TrainConfig(dim=8, steps=5000, seed=0)
    table, _ = train(ds, cfg)
    assert loss_box(table, ds.records[0], cfg) < 1e-3


def test_train_vector_hits_symmetric_floor():
    # A symmetric predictor on targets (1.0, 0.25) can at best predict the
    # midpoint 0.625 in both directions: summed directed L1 = 0.75.
    ds = PairDataset([OverlapRecord("a", "b", 1.0, 0.25)])
    cfg = TrainConfig(dim=8, steps=5000, seed=0)
    table, _ = train(ds, cfg, kind="vector")
    pred_xy, pred_yx = predict_pair(table, ds.records[0], cfg.smoothing)
    assert pred_xy == pred_yx
    l1 = abs(1.0 - pred_xy) + abs(0.25 - pred_yx)
    assert l1 == pytest.approx(0.75, abs=0.05)


def test_train_deterministic():
    ds = three_image_dataset()
    cfg = TrainConfig(dim=8, steps=300, seed=5)
    t1, trace1 = train(ds, cfg)
    t2, trace2 = train(ds, cfg)
    assert np.array_equal(t1.params, t2.params)
    assert np.array_equal(trace1, trace2)


def test_train_empty_dataset():
    with pytest.raises(ValueError, match="empty"):
        train(PairDataset([]), TrainConfig())


def test_train_divergence_reports_pairs():
    # A huge learning rate throws the boxes out until the loss turns non-finite.
    ds = PairDataset([OverlapRecord("a", "b", 1.0, 1.0)])
    cfg = TrainConfig(dim=2, steps=10, seed=0, lr=1e10)
    with pytest.raises(TrainingDivergedError) as err:
        train(ds, cfg)
    assert err.value.step == 2
    assert err.value.pair_ids == ["a", "b"]


def test_batch_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    dim = 3
    cfg = TrainConfig(dim=dim, rho=5.0)
    table = EmbeddingTable("box", ["a", "b", "c"], rng.normal(0, 1, size=(3, 2 * dim)))
    xi = np.array([0, 1])
    yi = np.array([1, 2])
    t_xy = np.array([0.7, 0.2])
    t_yx = np.array([0.4, 0.9])
    loss, grad = _box_batch_grad(table, xi, yi, t_xy, t_yx, cfg)

    def total():
        v = 0.0
        for k in range(2):
            pair = OverlapRecord(table.ids[xi[k]], table.ids[yi[k]],
                                 t_xy[k], t_yx[k])
            v += loss_box(table, pair, cfg)
        return v / 2.0

    assert loss == pytest.approx(total(), rel=1e-12)
    h = 1e-6
    fd = np.zeros_like(table.params)
    for i in range(table.params.shape[0]):
        for j in range(table.params.shape[1]):
            table.params[i, j] += h
            up = total()
            table.params[i, j] -= 2 * h
            down = total()
            table.params[i, j] += h
            fd[i, j] = (up - down) / (2 * h)
    scale = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
    assert np.max(np.abs(grad - fd) / scale) < 1e-4


def two_direction_grad(table, xi, yi, t_xy, t_yx, cfg):
    """Reference: one nbo_grad_batch call per direction, the pair swapped for
    y -> x and only direction 0 kept, and eight np.add.at scatters."""
    d = cfg.dim
    centers, size_raws = table.params[:, :d], table.params[:, d:]
    cx, sx = centers[xi], size_raws[xi]
    cy, sy = centers[yi], size_raws[yi]
    grad = np.zeros_like(table.params)
    total = 0.0
    for (ca, sa, cb, sb, ia, ib, target) in (
        (cx, sx, cy, sy, xi, yi, t_xy),
        (cy, sy, cx, sx, yi, xi, t_yx),
    ):
        pred, d_ca, d_sa, d_cb, d_sb = (
            a[0] for a in boxes.nbo_grad_batch(ca, sa, cb, sb, cfg.smoothing))
        err = target - pred
        total += float(np.mean(err**2))
        coef = (-2.0 * err / len(err))[:, None]
        np.add.at(grad[:, :d], ia, coef * d_ca)
        np.add.at(grad[:, d:], ia, coef * d_sa)
        np.add.at(grad[:, :d], ib, coef * d_cb)
        np.add.at(grad[:, d:], ib, coef * d_sb)
    return total, grad


def center_for_edge(center, size_raw, other_size_raw, side):
    """A center whose box of size softplus(other_size_raw) has the same
    upper (side=+1) or lower (side=-1) edge as the given box, exactly."""
    def edge(c, raw):
        return c + side * (boxes.softplus(raw) / 2.0)

    target = edge(center, size_raw)
    c = target - side * (boxes.softplus(other_size_raw) / 2.0)
    for _ in range(16):
        if edge(c, other_size_raw) == target:
            return c
        c = np.nextafter(c, -np.inf if edge(c, other_size_raw) > target else np.inf)
    raise AssertionError("no exact tie found")


@pytest.mark.parametrize("rho", [0.5, 5.0])
def test_box_batch_grad_equals_two_directions_bitwise(rho):
    rng = np.random.default_rng(11)
    n, dim = 8, 6
    centers = rng.integers(-2, 3, size=(n, dim)).astype(float)
    size_raws = rng.choice([0.5, 3.0, 6.0], size=(n, dim))
    centers[1] = centers[0]   # rows 0 and 1 are one box: ties in both edges
    size_raws[1] = size_raws[0]
    size_raws[2:4, :2] = size_raws[0, :2] + 1.0
    for col in range(2):      # rows 2 and 3 share only an edge with row 0
        centers[2, col] = center_for_edge(centers[0, col], size_raws[0, col],
                                          size_raws[2, col], +1)
        centers[3, col] = center_for_edge(centers[0, col], size_raws[0, col],
                                          size_raws[3, col], -1)
    table = box_table([f"i{k}" for k in range(n)], centers, size_raws)
    # Repeated rows, self pairs and each tie in both directions.
    xi = np.array([0, 1, 0, 2, 0, 3, 4, 4, 5, 6, 7, 0, 0])
    yi = np.array([1, 0, 2, 0, 3, 0, 4, 5, 4, 6, 1, 1, 7])
    lowers, uppers = table.bounds()
    up_tie = uppers[xi] == uppers[yi]
    low_tie = lowers[xi] == lowers[yi]
    assert (up_tie & ~low_tie).any() and (low_tie & ~up_tie).any()
    assert (up_tie & low_tie & (xi != yi)[:, None]).any()
    # A random table of another shape, with rows repeated within the batch.
    other = box_table([f"i{k}" for k in range(5)], rng.normal(0.0, 3.0, (5, 11)),
                      rng.normal(1.0, 2.0, (5, 11)))
    for table, xi, yi in ((table, xi, yi),
                          (other, rng.integers(0, 5, 40), rng.integers(0, 5, 40))):
        t_xy = rng.uniform(0.0, 1.0, len(xi))
        t_yx = rng.uniform(0.0, 1.0, len(xi))
        cfg = TrainConfig(dim=table.dim, rho=rho)
        loss, grad = _box_batch_grad(table, xi, yi, t_xy, t_yx, cfg)
        want_loss, want_grad = two_direction_grad(table, xi, yi, t_xy, t_yx, cfg)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()


# -- evaluation ----------------------------------------------------------------


def test_evaluate_perfect():
    table = identical_pair_table()
    metrics = evaluate(table, [OverlapRecord("a", "b", 1.0, 1.0)], TrainConfig(dim=4))
    assert metrics == {"l1_norm": 0.0, "rmse": 0.0, "acc_at_0.1": 1.0}


def test_evaluate_constant_error():
    # Identical boxes predict (1, 1); targets (0.8, 0.8) put every directed
    # error at exactly 0.2.
    table = identical_pair_table()
    pairs = [OverlapRecord("a", "b", 0.8, 0.8)] * 3
    metrics = evaluate(table, pairs, TrainConfig(dim=4))
    assert metrics["l1_norm"] == pytest.approx(0.4)
    assert metrics["rmse"] == pytest.approx(0.2 * math.sqrt(2.0))
    assert metrics["acc_at_0.1"] == 0.0


def test_predict_box_equals_scalar_nbo():
    rng = np.random.default_rng(4)
    ids = list("abcdef")
    table = box_table(ids, rng.normal(0.0, 2.0, (6, 5)), rng.normal(1.0, 1.0, (6, 5)))
    pairs = [(x, y) for x in ids for y in ids]
    for rho in (0.0, 5.0):
        cfg = SmoothingConfig(rho)
        want = [[nbo(table.box(x), table.box(y), cfg), nbo(table.box(y), table.box(x), cfg)]
                for x, y in pairs]
        assert predict(table, pairs, cfg).tolist() == want


def test_predict_vector_matches_per_pair_norm():
    rng = np.random.default_rng(4)
    ids = list("abcdef")
    table = EmbeddingTable("vector", ids, rng.normal(0.0, 0.3, (6, 8)))
    pairs = [(x, y) for x in ids for y in ids]
    got = predict(table, pairs, SmoothingConfig())
    vec = {x: table.params[table.row[x]] for x in ids}
    want = [min(1.0, max(0.0, 1.0 - float(np.linalg.norm(vec[x] - vec[y])))) for x, y in pairs]
    # Only the summation order of the norm differs from the per-pair loop.
    assert np.allclose(got[:, 0], want, rtol=0, atol=8 * np.finfo(np.float64).eps)
    assert np.array_equal(got[:, 0], got[:, 1])


def test_predict_degenerate_box():
    # softplus(-1000) underflows to a zero width: a zero hard volume, which
    # is the denominator of one of the pair's two directed overlaps.
    table = box_table(["a", "b", "c"], np.zeros((3, 2)),
                      [[0.0, -1000.0], [0.0, 0.0], [1.0, 1.0]])
    assert predict(table, [("b", "c")], HARD).shape == (1, 2)
    for pair in (("a", "b"), ("b", "a")):
        with pytest.raises(DegenerateBoxError, match="zero volume of image a$"):
            predict(table, [("b", "c"), pair], HARD)


def test_predict_unknown_id():
    with pytest.raises(KeyError, match="unknown image id: zzz"):
        predict(identical_pair_table(), [("a", "b"), ("zzz", "a")], SmoothingConfig())


def test_evaluate_empty():
    with pytest.raises(ValueError, match="empty"):
        evaluate(identical_pair_table(), [], TrainConfig(dim=4))


# -- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    ds = three_image_dataset()
    cfg = TrainConfig(dim=4, steps=50, seed=3)
    table, _ = train(ds, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, table, cfg, step=50)
    with np.load(path) as data:
        assert sorted(data.files) == ["config", "ids", "kind", "params", "step"]
        assert int(data["step"]) == 50
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded.kind == "box"
    assert loaded.ids == table.ids
    assert np.array_equal(loaded.params, table.params)
    assert loaded_cfg == cfg


def test_checkpoint_round_trip_vector(tmp_path):
    ds = three_image_dataset()
    cfg = TrainConfig(dim=4, steps=50, seed=3)
    table, _ = train(ds, cfg, kind="vector")
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, table, cfg, step=50)
    with np.load(path) as data:
        assert int(data["step"]) == 50
    loaded, _ = load_checkpoint(path)
    assert loaded.kind == "vector"
    assert np.array_equal(loaded.params, table.params)


def test_embedding_table_kind_checks():
    vec = EmbeddingTable("vector", ["a"], np.zeros((1, 3)))
    with pytest.raises(ValueError, match="not a box table"):
        vec.box("a")
    with pytest.raises(ValueError, match="unknown embedding kind"):
        EmbeddingTable("blob", ["a"], np.zeros((1, 2)))


def test_embedding_table_rejects_repeated_id():
    with pytest.raises(ValueError, match="repeated image id: a"):
        EmbeddingTable("box", ["a", "b", "a"], np.zeros((3, 2)))


def test_checkpoint_with_adam_moments_still_loads(tmp_path):
    # Earlier checkpoints also stored all-zero adam_m and adam_v.
    table = identical_pair_table()
    cfg = TrainConfig(dim=4, steps=7)
    path = tmp_path / "old.npz"
    save_checkpoint(path, table, cfg, 7)
    with np.load(path) as data:
        fields = dict(data)
    assert int(fields["step"]) == 7
    np.savez(path, adam_m=np.zeros_like(table.params), adam_v=np.zeros_like(table.params),
             **fields)
    loaded, loaded_cfg = load_checkpoint(path)
    assert np.array_equal(loaded.params, table.params)
    assert loaded_cfg == cfg


def test_checkpoint_without_step_loads(tmp_path):
    # The step count is kept for the record only: nothing resumes from it.
    table = identical_pair_table()
    cfg = TrainConfig(dim=4, steps=7)
    path = tmp_path / "nostep.npz"
    save_checkpoint(path, table, cfg, 7)
    with np.load(path) as data:
        fields = {k: data[k] for k in data.files if k != "step"}
    np.savez(path, **fields)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded.ids == table.ids
    assert np.array_equal(loaded.params, table.params)
    assert loaded_cfg == cfg


def test_checkpoint_config_holds_the_run_choices(tmp_path):
    path = tmp_path / "c.npz"
    save_checkpoint(path, identical_pair_table(), TrainConfig(dim=4), 0)
    with np.load(path) as data:
        keys = sorted(json.loads(str(data["config"])))
    assert keys == ["batch_size", "dim", "lr", "rho", "seed", "steps"]


def test_checkpoint_non_finite_params_rejected(tmp_path):
    table = identical_pair_table()
    for bad in (np.nan, np.inf):
        table.params[0, 1] = bad
        path = tmp_path / "bad.npz"
        save_checkpoint(path, table, TrainConfig(dim=4), 0)
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(path)


@pytest.mark.parametrize("field", ["lr", "rho"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_train_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ValueError, match="positive and finite"):
        TrainConfig(**{field: value})
