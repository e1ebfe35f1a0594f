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


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_grad(x):
    from scipy.special import expit
    return expit(x)


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
    v = np.asarray(v, dtype=np.float64)
    if cfg.hard:
        return (v > 0).astype(np.float64)
    from scipy.special import expit
    return expit(v / cfg.rho)


def intersection(lower_x, upper_x, lower_y, upper_y, cfg: SmoothingConfig, axis=-1):
    """Intersection volume of boxes given by bounds broadcast over (..., D),
    each box's lower and upper bounds of one shape.

    `axis` is the dimension axis, reduced in order: (D, n) bounds with
    axis=0 give the same bits as their (n, D) transpose with axis=-1.
    """
    v = np.minimum(upper_x, upper_y, dtype=np.float64)
    v -= np.maximum(lower_x, lower_y)
    return np.prod(sigma(v, cfg, out=v), axis=axis)


def volumes(lower, upper, cfg: SmoothingConfig, axis=-1):
    """Volume of boxes given by bounds over (..., D), the dimension `axis` reduced."""
    v = np.subtract(upper, lower, dtype=np.float64)
    return np.prod(sigma(v, cfg, out=v), axis=axis)


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


def _overlap_boxes(bx: BoxEmbedding, by: BoxEmbedding, cfg: SmoothingConfig):
    if bx.dim != by.dim:
        raise ValueError(f"dimension mismatch: {bx.dim} vs {by.dim}")
    return overlap(bx.lower, bx.upper, by.lower, by.upper, cfg)


def nbo(bx: BoxEmbedding, by: BoxEmbedding, cfg: SmoothingConfig) -> float:
    """Normalized box overlap: intersection volume over the source box volume."""
    inter, vol, _ = _overlap_boxes(bx, by, cfg)
    check_volume(vol)
    return float(inter / vol)


def params_to_bounds(center, size_raw):
    """(lower, upper) of boxes given by center and pre-softplus size arrays."""
    size = softplus(size_raw)
    return center - size / 2.0, center + size / 2.0


def nbo_batch(cx, sx_raw, cy, sy_raw, cfg: SmoothingConfig):
    """Vectorized nbo(x -> y) of boxes given as (B, D) centers and pre-softplus sizes."""
    inter, vol, _ = overlap(*params_to_bounds(cx, sx_raw),
                            *params_to_bounds(cy, sy_raw), cfg)
    return inter / vol


def nbo_grad_batch(cx, sx_raw, cy, sy_raw, cfg: SmoothingConfig):
    """Batched analytic gradients of both directed overlaps w.r.t. raw parameters.

    Inputs are (B, D) centers and pre-softplus sizes of boxes x and y. Returns
    (nbo, d_src_c, d_src_s, d_tgt_c, d_tgt_s), nbo (2, B) and each partial
    (2, B, D); axis 0 is the direction, x -> y then y -> x, so the source box
    is x, then y. Both come from one forward pass. Requires rho > 0 so every
    sigma factor is strictly positive. A min/max edge tie counts as the source's.
    """
    if cfg.hard:
        raise ValueError("gradients require rho > 0")
    size_raws = np.stack([sx_raw, sy_raw])
    sizes = softplus(size_raws)
    half = sizes / 2.0
    centers = np.stack([cx, cy])
    upper, lower = centers + half, centers - half
    v = np.minimum(upper[0], upper[1]) - np.maximum(lower[0], lower[1])

    f = sigma(v, cfg)
    g = sigma(sizes, cfg)
    out = np.prod(f, axis=-1) / np.prod(g, axis=-1)

    # d nbo / d v_d and the direct volume term through the source size.
    dv = out[..., None] * sigma_grad(v, cfg) / f
    d_direct = -out[..., None] * sigma_grad(sizes, cfg) / g
    a_u = (upper <= upper[::-1]).astype(np.float64)  # min tie -> source
    a_l = (lower >= lower[::-1]).astype(np.float64)  # max tie -> source
    spg = softplus_grad(size_raws)

    d_src_c = dv * (a_u - a_l)
    d_src_s = (dv * (a_u + a_l) / 2.0 + d_direct) * spg
    d_tgt_c = dv * ((1.0 - a_u) - (1.0 - a_l))
    d_tgt_s = dv * ((2.0 - a_u - a_l) / 2.0) * spg[::-1]
    return out, d_src_c, d_src_s, d_tgt_c, d_tgt_s


def box_table_to_json(ids, lowers, uppers) -> str:
    entries = [
        {"id": i, "lower": list(map(float, lo)), "upper": list(map(float, up))}
        for i, lo, up in zip(ids, lowers, uppers)
    ]
    return json.dumps({"boxes": entries}, indent=2, sort_keys=True)
