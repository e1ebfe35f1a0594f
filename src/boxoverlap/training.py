"""Fit per-image embeddings to directed overlap targets.

Two model kinds are supported: axis-aligned boxes trained on both directed
overlaps, and a plain vector baseline trained on the symmetric mean overlap
via a target-distance loss. Optimization is plain Adam over a lookup table
of per-image parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import boxes
from .boxes import BoxEmbedding, SmoothingConfig, params_to_bounds
from .geometry import OverlapRecord


class TrainingDivergedError(RuntimeError):
    """A run's loss turned non-finite at `step`, or, with what="params" or
    "bounds", its params or box bounds did by the end of its `step` steps;
    `pair_ids` names the images."""

    def __init__(self, step: int, pair_ids, what: str = "loss"):
        super().__init__(f"non-finite loss at step {step} (pairs: {pair_ids})" if what == "loss"
                         else f"non-finite {what} after {step} steps (ids: {pair_ids})")
        self.step = step
        self.pair_ids = pair_ids


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
LR_FINAL_SCALE = 0.01
# Boxes start large and heavily overlapping: with rho = 5 the smoothed
# edge function flattens below a scale of a few rho, so tiny initial
# boxes stall; see the softplus floor rho * ln 2 per dimension.
INIT_CENTER_STD = 10.0
INIT_SIZE_RAW = 100.0


@dataclass
class TrainConfig:
    dim: int = 32
    rho: float = 5.0
    lr: float = 0.1
    steps: int = 40000
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if min(self.dim, self.steps, self.batch_size) < 1:
            raise ValueError("dim, steps and batch_size must be >= 1")
        if not (math.isfinite(self.lr) and math.isfinite(self.rho)
                and self.lr > 0 and self.rho > 0):
            raise ValueError(
                f"lr and rho must be positive and finite, got {self.lr} and {self.rho}")

    @property
    def smoothing(self) -> SmoothingConfig:
        return SmoothingConfig(self.rho)


class PairDataset:
    """Overlap records and the sorted ids they name."""

    def __init__(self, records):
        self.records = records
        self.ids = sorted({i for rec in self.records for i in (rec.id_x, rec.id_y)})

    def __len__(self) -> int:
        return len(self.records)


class EmbeddingTable:
    """Image id -> trainable embedding parameters (box or vector kind)."""

    def __init__(self, kind: str, ids, params: np.ndarray):
        if kind not in ("box", "vector"):
            raise ValueError(f"unknown embedding kind: {kind}")
        self.kind = kind
        self.ids = list(ids)
        self.params = np.asarray(params, dtype=np.float64)
        self.row = {}
        for i, img_id in enumerate(self.ids):
            if self.row.setdefault(img_id, i) != i:
                raise ValueError(f"repeated image id: {img_id}")
        expected = 2 if kind == "box" else 1
        if self.params.ndim != 2 or len(self.ids) != len(self.params):
            raise ValueError("params must be (n_ids, k*D)")
        if self.params.shape[1] % expected:
            raise ValueError("box tables need an even parameter count per id")

    @property
    def dim(self) -> int:
        return self.params.shape[1] // (2 if self.kind == "box" else 1)

    def _index(self, img_id: str) -> int:
        if img_id not in self.row:
            raise KeyError(f"unknown image id: {img_id}")
        return self.row[img_id]

    def box(self, img_id: str) -> BoxEmbedding:
        if self.kind != "box":
            raise ValueError("not a box table: a box-kind table is required")
        row = self.params[self._index(img_id)]
        return BoxEmbedding(*params_to_bounds(row[: self.dim], row[self.dim :]))

    def bounds(self):
        if self.kind != "box":
            raise ValueError("not a box table: a box-kind table is required")
        return params_to_bounds(self.params[:, : self.dim], self.params[:, self.dim :])


def predict(table: EmbeddingTable, pairs, smoothing: SmoothingConfig) -> np.ndarray:
    """Predicted directed overlaps, one (pred_xy, pred_yx) row per (id_x, id_y).

    A box table predicts both normalized box overlaps; a vector table
    predicts 1 - distance, clipped to [0, 1], in both directions.
    """
    xi = np.array([table._index(id_x) for id_x, _ in pairs], dtype=np.intp)
    yi = np.array([table._index(id_y) for _, id_y in pairs], dtype=np.intp)
    if table.kind == "box":
        lowers, uppers = table.bounds()
        inter, vol_x, vol_y = boxes.overlap(lowers[xi], uppers[xi],
                                            lowers[yi], uppers[yi], smoothing)
        vols = np.stack([vol_x, vol_y], axis=1)
        bad = np.argwhere(~((vols > 0.0) & (vols < np.inf)))
        if len(bad):
            k, side = bad[0]
            boxes.check_volume(vols[k, side], table.ids[(xi, yi)[side][k]])
        return inter[:, None] / vols
    dist = np.linalg.norm(table.params[xi] - table.params[yi], axis=1)
    pred = np.clip(1.0 - dist, 0.0, 1.0)
    return np.stack([pred, pred], axis=1)


def loss_box(table: EmbeddingTable, pair: OverlapRecord, cfg: TrainConfig) -> float:
    """Squared error of both directed box overlaps against the targets."""
    pred_xy, pred_yx = predict_pair(table, pair, cfg.smoothing)
    return (pair.nso_xy - pred_xy) ** 2 + (pair.nso_yx - pred_yx) ** 2


def _init_table(dataset: PairDataset, cfg: TrainConfig, kind: str, rng) -> EmbeddingTable:
    n = len(dataset.ids)
    params = rng.normal(0.0, INIT_CENTER_STD, size=(n, cfg.dim))
    if kind == "box":  # the centers, then the sizes
        params = np.hstack([params, np.full((n, cfg.dim), INIT_SIZE_RAW)])
    return EmbeddingTable(kind, dataset.ids, params)


def _scatter(index, values, shape):
    """A zero table of `shape` with each of `values` added at its flat
    element index in `index`, in order: one np.bincount. Each table element
    receives its additions in the order of `index`, as np.add.at would."""
    return np.bincount(index.ravel(), values.ravel(),
                       minlength=math.prod(shape)).reshape(shape)


def _flat_index(params, blocks=1):
    """Flat element indices of `params` as (blocks, rows, columns / blocks):
    its columns cut into equal blocks (a box table's centers, then sizes),
    each indexed by table row. Built once per run."""
    n, k = params.shape
    return np.arange(params.size).reshape(n, blocks, k // blocks).transpose(1, 0, 2).copy()


def _box_grad(params, rows, targets, smoothing: SmoothingConfig, flat):
    """Mean loss over a batch of pairs plus gradient w.r.t. the full table.

    `rows` is (4, B): the x, y, y and x table rows of each pair, the order
    the partials are scattered in (x -> y first, source rows before target
    rows); `targets` is (2, B), each pair's two directed targets; `flat` is
    _flat_index(params, 2). Both directed overlaps and their partials come
    from one boxes kernel pass over the gathered rows.
    """
    d, b = params.shape[1] // 2, rows.shape[1]
    pair = rows[:2]
    out, dv, shares, d_size = boxes._nbo_grad_stacked(
        params[pair, :d], params[pair, d:], smoothing)

    err = targets - out
    sq = np.add.reduce(err * err, axis=1)
    total = float(sq[0]) / b + float(sq[1]) / b  # np.mean's arithmetic
    coef = (-2.0 * err / b)[..., None]
    # Center partials, then size partials, each per direction, source then
    # target, in the order of `index`. coef * (dv * share) is (coef * dv) *
    # share bit for bit, the share being -1, 0 or 1 and coef never NaN in a
    # step that is kept.
    index = flat.take(rows, axis=1)  # centers, then sizes, of rows x, y, y, x
    parts = np.empty(index.shape)
    d_center, d_sizes = parts.reshape((2,) + shares.shape).swapaxes(1, 2)
    np.multiply(np.multiply(coef, dv, out=dv), shares, out=d_center)
    np.multiply(coef, d_size, out=d_sizes)
    return total, _scatter(index, parts, params.shape)


def _box_batch_grad(table, xi, yi, t_xy, t_yx, cfg: TrainConfig):
    """_box_grad of one batch of pairs given by their x and y rows and targets."""
    return _box_grad(table.params, np.stack([xi, yi, yi, xi]), np.stack([t_xy, t_yx]),
                     cfg.smoothing, _flat_index(table.params, 2))


def _vector_grad(params, rows, t_sym, flat):
    """Mean target-distance loss over a batch of pairs, given by their (2, B)
    x and y table rows, plus gradient w.r.t. the full table."""
    diff = params[rows[0]] - params[rows[1]]
    dist = np.linalg.norm(diff, axis=1)
    err = (1.0 - t_sym) - dist
    loss = float(np.mean(err**2))
    safe = np.where(dist > 0, dist, 1.0)
    coef = (-2.0 * err / len(err) / safe * (dist > 0))[:, None]
    grad = _scatter(flat[:, rows.ravel()], np.concatenate([coef * diff, -coef * diff]),
                    params.shape)
    return loss, grad


# Batches are drawn this many pair indices at a time (at least one batch):
# enough to make the per-block costs small, few enough that a block's
# arrays (56 bytes a pair index) stay small beside a step's.
_BLOCK_INDICES = 1 << 12


def _draw_batches(rng, n, cfg: TrainConfig, pair_rows, targets):
    """Per step, a batch of cfg.batch_size pair indices in [0, n) and the
    columns of `pair_rows` and `targets` (their last axis indexes pairs) at
    them.

    Each block of batches comes from one rng.integers call of shape
    (steps, batch_size), which yields the values of that many successive
    calls of one batch each, and is gathered once.
    """
    block = max(1, _BLOCK_INDICES // cfg.batch_size)
    for start in range(0, cfg.steps, block):
        drawn = rng.integers(0, n, size=(min(block, cfg.steps - start), cfg.batch_size))
        rows, batch_targets = pair_rows.take(drawn, axis=1), targets.take(drawn, axis=-1)
        for j, batch in enumerate(drawn):
            yield batch, rows[:, j], batch_targets[..., j, :]


# A diverging run is reported once, as TrainingDivergedError; numpy's
# per-operation warnings on the way there would only add noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(dataset: PairDataset, cfg: TrainConfig, kind: str = "box"):
    """Minibatch Adam over a freshly initialised table; returns (table, loss_trace)."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    table = _init_table(dataset, cfg, kind, rng)

    # Per pair: x, y, y and x table rows (the box scatter order), and the
    # two directed targets.
    row = table.row
    xs = [row[r.id_x] for r in dataset.records]
    ys = [row[r.id_y] for r in dataset.records]
    pair_rows = np.array([xs, ys, ys, xs])
    targets = np.array([[r.nso_xy for r in dataset.records],
                        [r.nso_yx for r in dataset.records]])
    if kind == "vector":
        pair_rows, targets = pair_rows[:2], 0.5 * (targets[0] + targets[1])
    smoothing = cfg.smoothing
    flat = _flat_index(table.params, 2 if kind == "box" else 1)

    m = np.zeros_like(table.params)
    v = np.zeros_like(table.params)
    buf = np.empty_like(table.params)
    trace = np.empty(cfg.steps)
    batches = _draw_batches(rng, len(dataset), cfg, pair_rows, targets)
    for step, (batch, rows, batch_targets) in enumerate(batches):
        if kind == "box":
            loss, grad = _box_grad(table.params, rows, batch_targets, smoothing, flat)
        else:
            loss, grad = _vector_grad(table.params, rows, batch_targets, flat)
        if not math.isfinite(loss):
            ids = sorted({dataset.records[b].id_x for b in batch}
                         | {dataset.records[b].id_y for b in batch})
            raise TrainingDivergedError(step, ids)
        trace[step] = loss

        # Adam in place, in the operation order of m = BETA1 * m + (1 - BETA1)
        # * grad, v = BETA2 * v + (1 - BETA2) * grad**2 and params -= lr_t *
        # m_hat / (sqrt(v_hat) + EPS). Once v is updated, grad's buffer holds
        # the denominator.
        m *= BETA1
        np.multiply(grad, 1.0 - BETA1, out=buf)
        m += buf
        np.square(grad, out=grad)
        grad *= 1.0 - BETA2
        v *= BETA2
        v += grad
        # Cosine decay from lr down to lr * LR_FINAL_SCALE.
        frac = step / max(1, cfg.steps - 1)
        lr_t = cfg.lr * (LR_FINAL_SCALE
                         + (1.0 - LR_FINAL_SCALE) * 0.5 * (1.0 + math.cos(math.pi * frac)))
        np.divide(v, 1.0 - BETA2 ** (step + 1), out=grad)
        np.sqrt(grad, out=grad)
        grad += EPS
        np.divide(m, 1.0 - BETA1 ** (step + 1), out=buf)
        buf *= lr_t
        buf /= grad
        table.params -= buf
    # Each loss is checked before its update, so the last update is checked
    # here; finite params can still make box bounds past float64.
    what, rows = "params", table.params
    if kind == "box" and np.isfinite(rows).all():
        what, rows = "bounds", np.hstack(table.bounds())
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise TrainingDivergedError(cfg.steps, [table.ids[i] for i in np.flatnonzero(bad)], what)
    return table, trace


def predict_pair(table: EmbeddingTable, pair: OverlapRecord, smoothing: SmoothingConfig):
    """Predicted directed overlaps (pred_xy, pred_yx) for one pair."""
    return tuple(predict(table, [(pair.id_x, pair.id_y)], smoothing)[0].tolist())


def evaluate(table: EmbeddingTable, test_pairs, cfg: TrainConfig) -> dict:
    """L1-Norm, RMSE and Acc<0.1 of predicted vs ground-truth overlaps.

    acc_at_0.1 is the fraction (0..1) of individual directed overlaps whose
    absolute error is below 0.1.
    """
    test_pairs = list(test_pairs)
    if not test_pairs:
        raise ValueError("empty test set")
    pred = predict(table, [(p.id_x, p.id_y) for p in test_pairs], cfg.smoothing)
    errs = np.array([(p.nso_xy, p.nso_yx) for p in test_pairs]) - pred
    return {
        "l1_norm": float(np.mean(np.abs(errs).sum(axis=1))),
        "rmse": float(np.sqrt(np.mean((errs**2).sum(axis=1)))),
        "acc_at_0.1": float(np.mean(np.abs(errs) < 0.1)),
    }


# -- checkpoints --------------------------------------------------------------


def save_checkpoint(path, table: EmbeddingTable, cfg: TrainConfig, step: int):
    """Write the table, its training config and, for the record, the step
    count it reached; nothing resumes from it."""
    np.savez(
        path,
        kind=table.kind,
        ids=np.array(table.ids),
        params=table.params,
        step=step,
        config=json.dumps(asdict(cfg), sort_keys=True),
    )


def load_checkpoint(path):
    """(table, cfg) of a checkpoint; fields it does not read (`step` among
    them) are ignored. A file np.load does not open as an .npz archive, and a
    config key TrainConfig lacks, are errors."""
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError):  # neither a zip nor a readable .npy
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError("not an .npz archive")
    with data:
        table = EmbeddingTable(str(data["kind"]), [str(s) for s in data["ids"]],
                               data["params"])
        cfg = TrainConfig(**json.loads(str(data["config"])))
    if not np.isfinite(table.params).all():
        raise ValueError("params hold non-finite values")
    return table, cfg
