import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from boxoverlap.boxes import (
    HARD,
    BoxEmbedding,
    DegenerateBoxError,
    SmoothingConfig,
    box_table_to_json,
    intersection,
    nbo,
    nbo_batch,
    nbo_grad_batch,
    overlap,
    params_to_bounds,
    sigma,
    sigma_grad,
    softplus,
    volumes,
)
from boxoverlap.training import EmbeddingTable

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


def test_integer_list_bounds():
    assert intersection([0, 0], [2, 2], [1, 1], [3, 3], HARD) == 1.0
    assert intersection([0], [2], [1], [3], RHO5) == volumes([1], [2], RHO5)


def edge_values():
    edges = [-np.inf, -1e300, -7.5, -0.25, -0.0, 0.0, 1e-300, 0.5, 3.0, 1e300, np.inf]
    return np.concatenate([edges, np.random.default_rng(12).normal(0.0, 3.0, 200)])


@pytest.mark.parametrize("rho", [0.0, 0.5, 5.0])
def test_sigma_out_equals_fresh_result(rho):
    cfg = SmoothingConfig(rho)
    v = edge_values()
    kept = v.copy()
    fresh = sigma(v, cfg)
    assert v.tobytes() == kept.tobytes()  # the input is left as it was
    if rho:
        formula = np.maximum(0.0, v) + rho * np.log1p(np.exp(-np.abs(v) / rho))
    else:
        formula = np.maximum(0.0, v)
    assert fresh.tobytes() == formula.tobytes()
    assert sigma(v, cfg, out=v) is v
    assert v.tobytes() == fresh.tobytes()


def test_sigma_zero_d():
    for value in (np.float64(-2.0), np.array(3.0), 1):
        for cfg in (HARD, RHO5):
            assert sigma(value, cfg) == sigma(np.array([value], float), cfg)[0]
    out = np.empty(())
    assert sigma(np.array(0.0), RHO5, out=out) is out
    assert out == sigma(0.0, RHO5)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("rho", [0.0, 0.5, 5.0])
def test_dimension_major_axis_equals_last_axis(rho):
    # (D, n) bounds reduced over axis 0 give the bits of (n, D) bounds
    # reduced over the last axis: infinite bounds and zero widths included
    # (a hard volume of inf * 0 is NaN on both paths).
    cfg = SmoothingConfig(rho)
    rng = np.random.default_rng(11)
    n, dim = 400, 12
    lowers = rng.normal(0.0, 2.0, size=(n, dim))
    uppers = lowers + rng.choice([0.0, 0.1, 1.0, 4.0], size=(n, dim))
    lowers[rng.random((n, dim)) < 0.02] = -np.inf
    uppers[rng.random((n, dim)) < 0.02] = np.inf
    lo_t, hi_t = np.ascontiguousarray(lowers.T), np.ascontiguousarray(uppers.T)
    assert volumes(lo_t, hi_t, cfg, axis=0).tobytes() == volumes(lowers, uppers, cfg).tobytes()
    for q in [random_box(rng, dim) for _ in range(5)] + [box([0.0] * dim, [0.0] * dim)]:
        by_row = intersection(q.lower, q.upper, lowers, uppers, cfg)
        by_dim = intersection(q.lower[:, None], q.upper[:, None], lo_t, hi_t, cfg, axis=0)
        assert by_dim.tobytes() == by_row.tobytes()


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
    # A NaN bound is rejected too: it compares false against anything.
    for lower, upper in (([0, 0], [1, -1]), ([np.nan, 0], [1, 1]), ([0, 0], [1, np.nan])):
        with pytest.raises(ValueError, match="a bound is NaN or lower > upper"):
            box(lower, upper)


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


# params_to_bounds halves its fresh softplus output in place and writes the
# uppers into it: the params stay untouched, and every bound keeps the bits
# and type of c -/+ softplus(s) / 2.0, in and out of the linear regime.

BOUND_RAWS = {
    "regime": np.resize([41.0, 60.0, 1e300], (8, 16)),
    "below-regime": np.resize([-3.0, 0.5, 39.0, -1e300, -0.0], (8, 16)),
    "mixed": np.resize([41.0, -2.0, 40.0, 3.0], (8, 16)),
    "infinite": np.resize([41.0, np.inf, -np.inf, 2.0], (8, 16)),
    "nan": np.resize([41.0, np.nan, 1.0, -np.nan], (8, 16)),
}


def plain_bounds(center, size_raw):
    half = softplus(size_raw) / 2.0
    return center - half, center + half


def assert_same_bounds(got, want):
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w)
        assert np.asarray(g).dtype == np.asarray(w).dtype
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("raws", BOUND_RAWS.values(), ids=BOUND_RAWS)
def test_bounds_leave_params_and_keep_plain_bits(raws):
    params = np.hstack([np.random.default_rng(9).normal(0.0, 5.0, size=raws.shape), raws])
    before = params.tobytes()
    table = EmbeddingTable("box", [f"i{r}" for r in range(len(params))], params)
    centers, size_raws = table.params[:, :16], table.params[:, 16:]
    with np.errstate(invalid="ignore"):  # logaddexp(0, NaN) warns
        want = plain_bounds(centers, size_raws)
        assert_same_bounds(params_to_bounds(centers, size_raws), want)
        assert_same_bounds(table.bounds(), want)
        for row, img in enumerate(table.ids):
            if np.isnan(size_raws[row]).any():
                with pytest.raises(ValueError, match="NaN"):
                    table.box(img)
            else:
                b = table.box(img)
                assert_same_bounds((b.lower, b.upper), (want[0][row], want[1][row]))
    assert table.params.tobytes() == before


@pytest.mark.parametrize("center, size_raw", [
    (1.5, 0.25), (1.5, 50.0), (-2.0, math.inf), (1.5, math.nan),
    (np.float64(1.5), np.float64(-3.0)), (np.array(1.5), np.array(0.25)),
    (np.array(-2.0), np.array(41.0)), (np.array(1.5), np.array(-np.inf)),
    # Bounds that the softplus output cannot hold: another shape or type.
    (np.ones((3, 4)), np.full(4, 0.5)), (np.ones(4), np.full(4, 0.5, np.float32)),
    (np.ones(4, np.float32), np.full(4, 0.5)),
], ids=repr)
def test_scalar_and_other_bounds_keep_plain_form(center, size_raw):
    before = (np.asarray(center).tobytes(), np.asarray(size_raw).tobytes())
    with np.errstate(invalid="ignore"):
        assert_same_bounds(params_to_bounds(center, size_raw), plain_bounds(center, size_raw))
    assert (np.asarray(center).tobytes(), np.asarray(size_raw).tobytes()) == before


# -- softplus ------------------------------------------------------------------
# softplus takes x itself in its linear regime from 40 on; every other
# element, and every input that is not a float64 array, must give the bits
# and the type of np.logaddexp(0, x). Arrays of fewer than 64 elements go to
# logaddexp whole, so the regime cases are larger.

SOFTPLUS_EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e300, 1e300,
                  33.27, 36.74, np.nextafter(40.0, 0.0), 40.0, 41.0]


def assert_like_softplus(x):
    with np.errstate(invalid="ignore"):  # logaddexp(0, NaN) warns
        got, want = softplus(x), np.logaddexp(0.0, x)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("x", [
    3.0, 50.0, 50, -0.0, math.nan, math.inf, np.float64(50.0), np.float32(50.0),
    np.array(50.0), np.array(-0.0), np.full(100, 50.0, np.float32), np.full(100, 50),
    [50.0] * 100, np.empty(0), np.empty((0, 3)), np.full(63, 50.0), np.full(64, 50.0),
    np.resize(SOFTPLUS_EDGES, 130), np.resize(SOFTPLUS_EDGES[1:], 130),
    np.resize(SOFTPLUS_EDGES[::-1], (10, 13)), np.resize([41.0, 1e300, 40.0], (8, 8)),
    np.resize([41.0, np.nan, 3.0, -np.nan, 40.0, -np.inf], (4, 4, 4)),
    np.resize([41.0, 50.0, 3.0], (30, 9))[:, ::2],
    np.asfortranarray(np.resize([60.0, -0.0, 45.0, 2.0], (12, 10))),
])
def test_softplus_keeps_logaddexp_and_expit_bits_and_types(x):
    assert_like_softplus(x)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                max_side=12),
                  elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                     st.floats(30.0, 50.0),
                                     st.sampled_from(SOFTPLUS_EDGES))))
@settings(max_examples=300, deadline=None)
def test_softplus_equals_logaddexp_property(x):
    assert_like_softplus(x)
    if x.size:  # and with the first element in the linear regime
        x.flat[0] = 41.0
        assert_like_softplus(x)


# -- gradients -----------------------------------------------------------------


def pair_gradient(px, py, cfg, direction=0):
    """d nbo / d (center, size_raw of the source, then of the target) of one
    pair of (center, size_raw) parameter pairs, from one row of
    nbo_grad_batch: direction 0 is x -> y, direction 1 is y -> x."""
    _, *grads = nbo_grad_batch(px[0][None], px[1][None], py[0][None], py[1][None], cfg)
    return [g[direction, 0] for g in grads]


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
        # Direction 1 is nbo(y -> x), its source y.
        for direction, (src, tgt) in enumerate([(px, py), (py, px)]):
            analytic = np.concatenate(pair_gradient(px, py, RHO5, direction))
            fd = np.concatenate(_fd_gradient(src, tgt, RHO5))
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


def frozen_nbo_grad_batch(cx, sx_raw, cy, sy_raw, cfg):
    """nbo_grad_batch as it was before its softplus linear regime and its
    stacked edge pass: softplus and its gradient through np.logaddexp and
    expit on every element, sigma and sigma_grad called once per edge kind."""
    size_raws = np.stack([sx_raw, sy_raw])
    sizes = np.logaddexp(0.0, size_raws)
    half = sizes / 2.0
    centers = np.stack([cx, cy])
    upper, lower = centers + half, centers - half
    v = np.minimum(upper[0], upper[1]) - np.maximum(lower[0], lower[1])

    f = sigma(v, cfg)
    g = sigma(sizes, cfg)
    out = np.prod(f, axis=-1) / np.prod(g, axis=-1)

    dv = out[..., None] * sigma_grad(v, cfg) / f
    d_direct = -out[..., None] * sigma_grad(sizes, cfg) / g
    a_u = (upper <= upper[::-1]).astype(np.float64)
    a_l = (lower >= lower[::-1]).astype(np.float64)
    spg = expit(size_raws)

    d_src_c = dv * (a_u - a_l)
    d_src_s = (dv * (a_u + a_l) / 2.0 + d_direct) * spg
    d_tgt_c = dv * ((1.0 - a_u) - (1.0 - a_l))
    d_tgt_s = dv * ((2.0 - a_u - a_l) / 2.0) * spg[::-1]
    return out, d_src_c, d_src_s, d_tgt_c, d_tgt_s


# Size raws by softplus regime: rounding to x only from 33.27 on, rounding
# to x with expit not yet 1.0 below 36.74, the linear regime's edge, in it,
# and so large that the volumes overflow.
SIZE_RAW_REGIMES = {
    "below": st.floats(-60.0, 33.2),
    "rounding": st.floats(33.27, 40.0, exclude_max=True),
    "forty": st.just(40.0),
    "above": st.floats(40.0, 1e6, exclude_min=True),
    "huge": st.just(1e300),
}
SIZE_RAW_REGIMES["mixed"] = st.one_of(*SIZE_RAW_REGIMES.values())


@pytest.mark.parametrize("regime", list(SIZE_RAW_REGIMES))
@pytest.mark.parametrize("rho", [0.5, 5.0])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_grad_batch_equals_frozen_kernel_bitwise(rho, regime, data):
    b, d = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    raws = hnp.arrays(np.float64, (b, d), elements=SIZE_RAW_REGIMES[regime])
    # Centers on a coarse grid, so edges tie now and then.
    centers = hnp.arrays(np.float64, (b, d), elements=st.sampled_from(
        [-40.0, -1.0, -0.5, 0.0, 0.5, 1.0, 40.0]) | st.floats(-100.0, 100.0))
    cx, sx, cy, sy = (data.draw(a) for a in (centers, raws, centers, raws))
    if data.draw(st.booleans()):
        cy, sy = cx.copy(), sx.copy()
    dtype = data.draw(st.sampled_from([np.float64, np.float32]))
    cfg = SmoothingConfig(rho)
    with np.errstate(all="ignore"):
        cx, sx, cy, sy = (a.astype(dtype) for a in (cx, sx, cy, sy))
        got = nbo_grad_batch(cx, sx, cy, sy, cfg)
        want = frozen_nbo_grad_batch(cx, sx, cy, sy, cfg)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


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
