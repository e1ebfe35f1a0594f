"""Axis-aligned D-dimensional boxes: intersection, volume, normalized overlap.

A box is stored as lower/upper bounds. Overlap computations support a hard
edge function max(0, v) and a smoothed variant rho * ln(1 + exp(v / rho))
that keeps gradients alive for disjoint boxes. Trainable boxes are
parameterized by an unconstrained center and a pre-softplus size vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class DegenerateBoxError(ValueError):
    """Raised when a box volume that divides an overlap is zero or overflows."""


@dataclass(frozen=True)
class SmoothingConfig:
    """Edge smoothing for intersection/volume. rho == 0 selects hard max(0, v)."""

    rho: float = 5.0

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")

    @property
    def hard(self) -> bool:
        return self.rho == 0.0


HARD = SmoothingConfig(rho=0.0)


@dataclass(frozen=True)
class BoxEmbedding:
    """A D-dimensional axis-aligned box with lower <= upper per dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        # A NaN bound compares false, as in BoxIndex.
        if not (lower <= upper).all():
            raise ValueError("a bound is NaN or lower > upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


# Softplus is exactly linear from _LINEAR on: there exp(-x) is below half
# an ulp of x and of 1.0, so float64 logaddexp(0, x) rounds to x (from 33.27)
# and expit(x) to 1.0 (from 36.74). Below _LINEAR_MIN_SIZE elements (a
# 32-dimension box row, say) one logaddexp call costs less than the min
# reduction that proves the regime.
_LINEAR = 40.0
_LINEAR_MIN_SIZE = 64


def softplus(x):
    """np.logaddexp(0, x), its bits and type; a large float64 array whose first
    element is in the regime (a trained table's) keeps x on those elements."""
    if (type(x) is not np.ndarray or x.dtype != np.float64
            or x.size < _LINEAR_MIN_SIZE or not x.item(0) >= _LINEAR):
        return np.logaddexp(0.0, x)
    out = x.copy(order="K")
    if not x.min() >= _LINEAR:
        rest = ~(x >= _LINEAR)
        out[rest] = np.logaddexp(0.0, x[rest])
    return out


def sigma(v, cfg: SmoothingConfig, out=None):
    """Edge function: max(0, v) or its rho-smoothed version (overflow-safe).

    Writes into `out` when given, which may be v itself. The smoothing term
    rho * ln(1 + exp(-|v| / rho)) is built in one scratch array.
    """
    v = np.asarray(v, dtype=np.float64)
    if cfg.hard:
        return np.maximum(0.0, v, out=out)
    soft = np.abs(v, out=np.empty_like(v))
    soft /= -cfg.rho
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    soft *= cfg.rho
    out = np.maximum(0.0, v, out=out)
    out += soft
    return out


def sigma_grad(v, cfg: SmoothingConfig):
    """d sigma / d v of the smoothed edge function; requires rho > 0."""
    v = np.asarray(v, dtype=np.float64)
    from scipy.special import expit
    return expit(v / cfg.rho)


def intersection(lower_x, upper_x, lower_y, upper_y, cfg: SmoothingConfig, axis=-1,
                 out=None):
    """Intersection volume of boxes given by bounds broadcast over (..., D),
    each box's lower and upper bounds of one shape; written into `out` when given.

    `axis` is the dimension axis, reduced in order: (D, n) bounds with
    axis=0 give the same bits as their (n, D) transpose with axis=-1.
    """
    v = np.minimum(upper_x, upper_y, dtype=np.float64)
    v -= np.maximum(lower_x, lower_y)
    return np.multiply.reduce(sigma(v, cfg, out=v), axis=axis, out=out)


def volumes(lower, upper, cfg: SmoothingConfig, axis=-1, out=None):
    """Volume of boxes given by bounds over (..., D), the dimension `axis`
    reduced; written into `out` when given."""
    v = np.subtract(upper, lower, dtype=np.float64)
    return np.multiply.reduce(sigma(v, cfg, out=v), axis=axis, out=out)


def overlap(lower_x, upper_x, lower_y, upper_y, cfg: SmoothingConfig):
    """Intersection volume and both box volumes, from bounds broadcast over (..., D).

    Returns (inter, vol_x, vol_y) with the last axis reduced, so the two
    directed overlaps nbo(x -> y) = inter / vol_x and nbo(y -> x) =
    inter / vol_y share one intersection.
    """
    return (intersection(lower_x, upper_x, lower_y, upper_y, cfg),
            volumes(lower_x, upper_x, cfg), volumes(lower_y, upper_y, cfg))


def check_volume(vol, image_id=None):
    """Raise DegenerateBoxError unless a box volume that divides an overlap is
    positive and finite. Sizes that underflow make it 0; sizes whose product
    overflows make it inf, or NaN where a later factor is 0."""
    if not 0.0 < vol < np.inf:
        of = "" if image_id is None else f" of image {image_id}"
        raise DegenerateBoxError(
            f"degenerate box: {'zero' if vol == 0.0 else 'overflowing'} volume{of}")


def nbo(bx: BoxEmbedding, by: BoxEmbedding, cfg: SmoothingConfig) -> float:
    """Normalized box overlap: intersection volume over the source box volume."""
    if bx.dim != by.dim:
        raise ValueError(f"dimension mismatch: {bx.dim} vs {by.dim}")
    inter, vol, _ = overlap(bx.lower, bx.upper, by.lower, by.upper, cfg)
    check_volume(vol)
    return float(inter / vol)


def params_to_bounds(center, size_raw):
    """(lower, upper) of boxes given by center and pre-softplus size arrays:
    center -/+ softplus(size_raw) / 2.0. An array's fresh softplus output is
    halved in place and, when it has the uppers' shape and type, holds them."""
    half = softplus(size_raw)
    half /= 2.0  # a scalar or 0-d size gives a numpy scalar, divided anew
    lower = center - half
    if type(half) is np.ndarray and half.shape == lower.shape and half.dtype == lower.dtype:
        return lower, np.add(center, half, out=half)
    return lower, center + half


def nbo_batch(cx, sx_raw, cy, sy_raw, cfg: SmoothingConfig):
    """Vectorized nbo(x -> y) of boxes given as (B, D) centers and pre-softplus sizes."""
    lower_x, upper_x = params_to_bounds(cx, sx_raw)
    return (intersection(lower_x, upper_x, *params_to_bounds(cy, sy_raw), cfg)
            / volumes(lower_x, upper_x, cfg))


def _softplus_with_grad(x):
    """softplus(x) and its gradient expit(x) from one regime mask: elements
    at or above _LINEAR keep x and 1.0, the others go to np.logaddexp and
    expit. The gradient is None when every element (of none) is in the regime."""
    if np.minimum.reduce(x, axis=None, initial=np.inf) >= _LINEAR:
        return x, None
    from scipy.special import expit
    rest = ~(x >= _LINEAR)
    below = x[rest]
    sizes = x.astype(np.result_type(x, 0.0))
    grad = np.ones_like(sizes)
    sizes[rest] = np.logaddexp(0.0, below)
    grad[rest] = expit(below)
    return sizes, grad


def _nbo_grad_stacked(centers, size_raws, cfg: SmoothingConfig):
    """nbo_grad_batch's pass over (2, B, D) centers and pre-softplus sizes of
    the boxes x then y.

    Returns (nbo, dv, shares, d_size). nbo is (2, B) and dv (2, B, D), d nbo
    / d v_d of the intersection edges, axis 0 the direction. shares and
    d_size are (2, 2, B, D), axis 0 the source then the target box and axis
    1 the direction: the boxes' shares of the edges, in {-1, 0, 1}, whose
    products with dv are the center partials, and their size partials.
    """
    if cfg.hard:
        raise ValueError("gradients require rho > 0")
    sizes, spg = _softplus_with_grad(size_raws)
    half = sizes * 0.5  # sizes / 2.0, bit for bit
    # Per box, its upper bounds, then its negated lower bounds: half - center
    # is exactly -(center - half), so one min and one <= serve both edges
    # (min(upper) + min(-lower) may differ from min(upper) - max(lower) only
    # in the sign of a zero, which sigma and sigma_grad do not see).
    bounds = np.empty((2, 2) + centers.shape[1:], np.result_type(centers, half))
    np.add(centers, half, out=bounds[:, 0])
    np.subtract(half, centers, out=bounds[:, 1])
    # The intersection edges, min(upper) - max(lower), then both boxes'
    # sizes, through one sigma and one sigma_grad call.
    edges = np.empty((3,) + centers.shape[1:], bounds.dtype)
    nearest = np.minimum(bounds[0], bounds[1])
    np.add(nearest[0], nearest[1], out=edges[0])
    edges[1:] = sizes
    f, s_grad = sigma(edges, cfg), sigma_grad(edges, cfg)
    prods = np.multiply.reduce(f, axis=-1)
    out = prods[0] / prods[1:]

    # d nbo / d v_d and the direct volume term through the source size.
    out_d = out[..., None]
    dv = out_d * s_grad[0] / f[0]
    d_direct = -out_d * s_grad[1:]
    d_direct /= f[1:]
    # Whether the source holds the intersection's upper edge (a_u) and its
    # lower edge (a_l), per direction; a tie counts as the source's.
    holds = np.empty(bounds.shape, bool)
    np.less_equal(bounds[0], bounds[1], out=holds[0])
    np.less_equal(bounds[1], bounds[0], out=holds[1])
    shares = holds.astype(np.float64).swapaxes(0, 1)
    a_u, a_l = shares[0], shares[1]
    # The size partials, each in its own contiguous block so that a NaN
    # meeting a NaN keeps the bits of the same operations on separate
    # arrays: (dv * a_sum) / 2 + d_direct for the source and dv * ((2 -
    # a_sum) / 2) for the target.
    d_size = np.empty(shares.shape)
    a_sum = np.add(a_u, a_l, out=d_size[0])
    np.subtract(2.0, a_sum, out=d_size[1])
    d_size[1] *= 0.5
    np.multiply(dv, d_size, out=d_size)
    d_size[0] *= 0.5
    d_size[0] += d_direct
    if spg is not None:
        d_size[0] *= spg
        d_size[1] *= spg[::-1]
    # The shares: a_u - a_l for the source, a_l - a_u (a tie's +0.0
    # included) for the target.
    np.subtract(a_u, a_l, out=a_u)
    np.subtract(0.0, a_u, out=a_l)
    return out, dv, shares, d_size


def nbo_grad_batch(cx, sx_raw, cy, sy_raw, cfg: SmoothingConfig):
    """Batched analytic gradients of both directed overlaps w.r.t. raw parameters.

    Inputs are (B, D) centers and pre-softplus sizes of boxes x and y. Returns
    (nbo, d_src_c, d_src_s, d_tgt_c, d_tgt_s), nbo (2, B) and each partial
    (2, B, D); axis 0 is the direction, x -> y then y -> x, so the source box
    is x, then y. Both come from one forward pass. Requires rho > 0 so every
    sigma factor is strictly positive. A min/max edge tie counts as the source's.
    """
    out, dv, shares, d_size = _nbo_grad_stacked(
        np.stack([cx, cy]), np.stack([sx_raw, sy_raw]), cfg)
    d_center = dv * shares
    return out, d_center[0], d_size[0], d_center[1], d_size[1]


def box_table_to_json(ids, lowers, uppers) -> str:
    entries = [
        {"id": i, "lower": list(map(float, lo)), "upper": list(map(float, up))}
        for i, lo, up in zip(ids, lowers, uppers)
    ]
    return json.dumps({"boxes": entries}, indent=2, sort_keys=True, allow_nan=False)
