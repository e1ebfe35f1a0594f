import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxoverlap.boxes import (
    HARD,
    BoxEmbedding,
    DegenerateBoxError,
    SmoothingConfig,
    box_table_to_json,
    nbo,
    nbo_batch,
    nbo_grad_batch,
    overlap,
    params_to_bounds,
    sigma,
    softplus,
    volumes,
)

RHO5 = SmoothingConfig(5.0)


def box(lower, upper):
    return BoxEmbedding(np.asarray(lower, float), np.asarray(upper, float))


def param_box(center, size_raw):
    return BoxEmbedding(*params_to_bounds(center, size_raw))


def inter(bx, by, cfg):
    return float(overlap(bx.lower, bx.upper, by.lower, by.upper, cfg)[0])


def random_box(rng, dim):
    lo = rng.uniform(-3.0, 2.0, size=dim)
    return BoxEmbedding(lo, lo + rng.uniform(0.1, 3.0, size=dim))


# -- sigma ---------------------------------------------------------------------


def test_sigma_at_zero():
    assert sigma(0.0, RHO5) == pytest.approx(5.0 * math.log(2.0), rel=1e-12)


def test_sigma_no_overflow():
    # 5 * ln(1 + e^{-200}) underflows to zero, leaving the linear term.
    assert sigma(1000.0, RHO5) == 1000.0


def test_sigma_hard_limit():
    assert sigma(-3.0, SmoothingConfig(1e-4)) < 1e-9
    assert sigma(-3.0, HARD) == 0.0
    assert sigma(2.5, HARD) == 2.5


def test_sigma_upper_bounds_hard():
    v = np.linspace(-10.0, 10.0, 2001)
    for rho in (1.0, 0.1, 0.01):
        gap = sigma(v, SmoothingConfig(rho)) - np.maximum(0.0, v)
        assert np.all(gap >= 0.0)
        assert gap.max() <= rho * math.log(2.0) + 1e-15


def test_negative_rho_rejected():
    with pytest.raises(ValueError):
        SmoothingConfig(-1.0)


# -- intersection / volume / nbo ----------------------------------------------


def test_intersection_self():
    b = box([0, 0], [1, 1])
    assert inter(b, b, HARD) == 1.0


def test_intersection_half_overlap():
    bx = box([0, 0], [1, 1])
    by = box([0.5, 0], [1.5, 1])
    assert inter(bx, by, HARD) == pytest.approx(0.5)


def test_intersection_disjoint():
    bx = box([0], [1])
    by = box([10], [11])
    assert inter(bx, by, HARD) == 0.0


def test_intersection_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        nbo(box([0], [1]), box([0, 0], [1, 1]), HARD)


def test_volume_unit_cube():
    assert volumes([0, 0, 0], [1, 1, 1], HARD) == 1.0


def test_volume_product():
    assert volumes([0, 0], [2, 3], HARD) == 6.0


def test_volume_smooth_unit_square():
    # Direct evaluation of (5 ln(1 + e^{1/5}))^2.
    expected = (5.0 * math.log(1.0 + math.exp(0.2))) ** 2
    assert volumes([0, 0], [1, 1], RHO5) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(15.9256, abs=1e-4)


def test_nbo_identical():
    rng = np.random.default_rng(0)
    b = random_box(rng, 4)
    for cfg in (HARD, RHO5, SmoothingConfig(0.3)):
        assert nbo(b, b, cfg) == 1.0


def test_nbo_containment():
    inner = box([0, 0], [1, 1])
    outer = box([0, 0], [2, 2])
    assert nbo(inner, outer, HARD) == 1.0
    assert nbo(outer, inner, HARD) == pytest.approx(0.25)


def test_nbo_disjoint():
    bx = box([0, 0], [1, 1])
    by = box([5, 5], [6, 6])
    assert nbo(bx, by, HARD) == 0.0
    assert nbo(by, bx, HARD) == 0.0


def test_nbo_degenerate_source():
    point = box([1, 1], [1, 1])
    with pytest.raises(DegenerateBoxError):
        nbo(point, box([0, 0], [2, 2]), HARD)


@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.3, 5.0]))
@settings(max_examples=60, deadline=None)
def test_nbo_in_unit_interval(seed, rho):
    rng = np.random.default_rng(seed)
    bx = random_box(rng, 3)
    by = random_box(rng, 3)
    v = nbo(bx, by, SmoothingConfig(rho))
    assert 0.0 <= v <= 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_nbo_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    bx = random_box(rng, 3)
    by = random_box(rng, 3)
    t = rng.uniform(-5.0, 5.0, size=3)
    for cfg in (HARD, RHO5):
        a = nbo(bx, by, cfg)
        b = nbo(box(bx.lower + t, bx.upper + t), box(by.lower + t, by.upper + t), cfg)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


def _integer_boxes(dim, rng, count):
    out = []
    while len(out) < count:
        lo = rng.integers(-3, 3, size=dim)
        hi = rng.integers(-3, 4, size=dim)
        if np.all(hi > lo):
            out.append(box(lo, hi))
    return out


def test_hard_nbo_one_iff_contained_1d_exhaustive():
    intervals = [(lo, hi) for lo in range(-3, 4) for hi in range(lo + 1, 4)]
    for alo, ahi in intervals:
        for blo, bhi in intervals:
            contained = blo <= alo and ahi <= bhi
            value = nbo(box([alo], [ahi]), box([blo], [bhi]), HARD)
            assert (value == 1.0) == contained


@pytest.mark.parametrize("dim", [2, 3])
def test_hard_nbo_one_iff_contained(dim):
    rng = np.random.default_rng(17 + dim)
    sources = _integer_boxes(dim, rng, 40)
    targets = _integer_boxes(dim, rng, 40)
    for bx in sources:
        for by in targets:
            contained = np.all(by.lower <= bx.lower) and np.all(bx.upper <= by.upper)
            assert (nbo(bx, by, HARD) == 1.0) == bool(contained)


def test_box_embedding_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        box([0, 0], [1, -1])


# -- params --------------------------------------------------------------------


def test_params_to_box_point_limit():
    b = param_box(np.zeros(3), np.full(3, -50.0))
    assert np.all(b.upper - b.lower < 1e-20)


def test_params_to_box_softplus_zero():
    b = param_box(np.zeros(2), np.zeros(2))
    assert np.allclose(b.upper - b.lower, math.log(2.0))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_params_to_box_ordered(seed):
    rng = np.random.default_rng(seed)
    center, size_raw = rng.normal(0, 10, size=4), rng.normal(0, 10, size=4)
    b = param_box(center, size_raw)
    assert np.all(b.upper >= b.lower)
    assert np.allclose(0.5 * (b.lower + b.upper), center)
    assert np.allclose(b.upper - b.lower, softplus(size_raw))


# -- gradients -----------------------------------------------------------------


def pair_gradient(px, py, cfg):
    """d nbo / d (center_x, size_raw_x, center_y, size_raw_y) of one pair of
    (center, size_raw) parameter pairs, from one row of nbo_grad_batch."""
    _, *grads = nbo_grad_batch(px[0][None], px[1][None], py[0][None], py[1][None], cfg)
    return [g[0] for g in grads]


def _fd_gradient(px, py, cfg, h=1e-5):
    def f(pxc, pxs, pyc, pys):
        return nbo(param_box(pxc, pxs), param_box(pyc, pys), cfg)

    arrays = [px[0].copy(), px[1].copy(), py[0].copy(), py[1].copy()]
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        for i in range(arr.size):
            hi = [a.copy() for a in arrays]
            lo = [a.copy() for a in arrays]
            hi[k][i] += h
            lo[k][i] -= h
            g[i] = (f(*hi) - f(*lo)) / (2 * h)
        grads.append(g)
    return grads


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        px = (rng.normal(0, 2, size=4), rng.normal(0, 2, size=4))
        py = (rng.normal(0, 2, size=4), rng.normal(0, 2, size=4))
        analytic = np.concatenate(pair_gradient(px, py, RHO5))
        fd = np.concatenate(_fd_gradient(px, py, RHO5))
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))
    assert worst < 1e-4


def test_gradient_joint_translation_invariance():
    p = (np.array([0.3, -0.7]), np.array([0.5, 1.0]))
    d_cx, _, d_cy, _ = pair_gradient(p, p, RHO5)
    # Moving both boxes together leaves nbo unchanged.
    assert np.allclose(d_cx + d_cy, 0.0, atol=1e-12)


def test_gradient_nonzero_for_disjoint_boxes():
    px = (np.zeros(2), np.zeros(2))
    py = (np.full(2, 30.0), np.zeros(2))
    mag = np.linalg.norm(np.concatenate(pair_gradient(px, py, RHO5)))
    assert mag > 0.0


def test_gradient_requires_smoothing():
    p = (np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        pair_gradient(p, p, HARD)


# -- batched kernel ------------------------------------------------------------


def reference_nbo(bx, by, cfg):
    """Per-pair nbo written out on its own, as the kernel must reproduce it."""
    inter = np.prod(sigma(np.minimum(bx.upper, by.upper) - np.maximum(bx.lower, by.lower), cfg))
    return float(inter) / float(np.prod(sigma(bx.upper - bx.lower, cfg)))


@pytest.mark.parametrize("rho", [0.0, 0.5, 5.0])
def test_overlap_batch_equals_per_pair(rho):
    cfg = SmoothingConfig(rho)
    rng = np.random.default_rng(5)
    xs = [random_box(rng, 6) for _ in range(40)]
    ys = [random_box(rng, 6) for _ in range(40)]
    inter, vol_x, vol_y = overlap(np.array([b.lower for b in xs]), np.array([b.upper for b in xs]),
                                  np.array([b.lower for b in ys]), np.array([b.upper for b in ys]),
                                  cfg)
    assert inter.shape == vol_x.shape == vol_y.shape == (40,)
    for i, (bx, by) in enumerate(zip(xs, ys)):
        assert inter[i] / vol_x[i] == nbo(bx, by, cfg) == reference_nbo(bx, by, cfg)
        assert inter[i] / vol_y[i] == nbo(by, bx, cfg) == reference_nbo(by, bx, cfg)
    # One query box broadcast against the whole batch.
    q_inter, q_vol, _ = overlap(xs[0].lower, xs[0].upper, np.array([b.lower for b in ys]),
                                np.array([b.upper for b in ys]), cfg)
    assert q_vol.shape == ()
    assert [e for e in q_inter / q_vol] == [nbo(xs[0], by, cfg) for by in ys]


def test_nbo_batch_equals_nbo_of_params():
    rng = np.random.default_rng(6)
    cx, sx, cy, sy = (rng.normal(size=(8, 5)) for _ in range(4))
    got = nbo_batch(cx, sx, cy, sy, RHO5)
    want = [nbo(param_box(cx[i], sx[i]), param_box(cy[i], sy[i]), RHO5) for i in range(8)]
    assert got.tolist() == want


# -- JSON export ---------------------------------------------------------------


def test_box_table_json():
    import json

    doc = json.loads(box_table_to_json(["a"], [np.zeros(2)], [np.ones(2)]))
    assert doc["boxes"][0] == {"id": "a", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
