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
from scipy.special import expit


class DegenerateBoxError(ValueError):
    """Raised when a zero-volume box is used as an overlap denominator."""


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
        if np.any(upper < lower):
            raise ValueError("upper must be >= lower in every dimension")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def translate(self, t) -> "BoxEmbedding":
        t = np.asarray(t, dtype=np.float64)
        return BoxEmbedding(self.lower + t, self.upper + t)


@dataclass(frozen=True)
class BoxParams:
    """Unconstrained box parameters: center and pre-softplus sizes."""

    center: np.ndarray
    size_raw: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        size_raw = np.asarray(self.size_raw, dtype=np.float64)
        if center.shape != size_raw.shape or center.ndim != 1:
            raise ValueError("center and size_raw must be 1-D arrays of equal length")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size_raw", size_raw)

    @property
    def dim(self) -> int:
        return self.center.shape[0]


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_grad(x):
    return expit(x)


def sigma(v, cfg: SmoothingConfig):
    """Edge function: max(0, v) or its rho-smoothed version (overflow-safe)."""
    v = np.asarray(v, dtype=np.float64)
    if cfg.hard:
        return np.maximum(0.0, v)
    return np.maximum(0.0, v) + cfg.rho * np.log1p(np.exp(-np.abs(v) / cfg.rho))


def sigma_grad(v, cfg: SmoothingConfig):
    v = np.asarray(v, dtype=np.float64)
    if cfg.hard:
        return (v > 0).astype(np.float64)
    return expit(v / cfg.rho)


def intersection(lower_x, upper_x, lower_y, upper_y, cfg: SmoothingConfig):
    """Intersection volume of boxes given by bounds broadcast over (..., D)."""
    v = np.minimum(upper_x, upper_y) - np.maximum(lower_x, lower_y)
    return np.prod(sigma(v, cfg), axis=-1)


def volumes(lower, upper, cfg: SmoothingConfig):
    """Volume of boxes given by bounds over (..., D), last axis reduced."""
    return np.prod(sigma(np.subtract(upper, lower), cfg), axis=-1)


def overlap(lower_x, upper_x, lower_y, upper_y, cfg: SmoothingConfig):
    """Intersection volume and both box volumes, from bounds broadcast over (..., D).

    Returns (inter, vol_x, vol_y) with the last axis reduced, so the two
    directed overlaps nbo(x -> y) = inter / vol_x and nbo(y -> x) =
    inter / vol_y share one intersection.
    """
    return (intersection(lower_x, upper_x, lower_y, upper_y, cfg),
            volumes(lower_x, upper_x, cfg), volumes(lower_y, upper_y, cfg))


def _overlap_boxes(bx: BoxEmbedding, by: BoxEmbedding, cfg: SmoothingConfig):
    if bx.dim != by.dim:
        raise ValueError(f"dimension mismatch: {bx.dim} vs {by.dim}")
    return overlap(bx.lower, bx.upper, by.lower, by.upper, cfg)


def intersection_volume(bx: BoxEmbedding, by: BoxEmbedding, cfg: SmoothingConfig) -> float:
    return float(_overlap_boxes(bx, by, cfg)[0])


def volume(b: BoxEmbedding, cfg: SmoothingConfig) -> float:
    return float(_overlap_boxes(b, b, cfg)[1])


def nbo(bx: BoxEmbedding, by: BoxEmbedding, cfg: SmoothingConfig) -> float:
    """Normalized box overlap: intersection volume over the source box volume."""
    inter, vol, _ = _overlap_boxes(bx, by, cfg)
    if vol == 0.0:
        raise DegenerateBoxError("degenerate box: zero source volume")
    return float(inter / vol)


def params_to_bounds(center, size_raw):
    """(lower, upper) of boxes given by center and pre-softplus size arrays."""
    size = softplus(size_raw)
    return center - size / 2.0, center + size / 2.0


def params_to_box(p: BoxParams) -> BoxEmbedding:
    return BoxEmbedding(*params_to_bounds(p.center, p.size_raw))


def nbo_batch(cx, sx_raw, cy, sy_raw, cfg: SmoothingConfig):
    """Vectorized nbo(params_to_box(x) -> params_to_box(y)) for (B, D) params."""
    inter, vol, _ = overlap(*params_to_bounds(cx, sx_raw),
                            *params_to_bounds(cy, sy_raw), cfg)
    return inter / vol


def nbo_grad_batch(cx, sx_raw, cy, sy_raw, cfg: SmoothingConfig):
    """Batched analytic gradient of nbo w.r.t. raw parameters.

    Inputs are (B, D) arrays; returns (nbo, d_cx, d_sx_raw, d_cy, d_sy_raw).
    Requires rho > 0 so every sigma factor is strictly positive. Ties in the
    min/max edge terms are resolved toward the first (source) argument.
    """
    if cfg.hard:
        raise ValueError("gradients require rho > 0")
    sx = softplus(sx_raw)
    sy = softplus(sy_raw)
    ux, lx = cx + sx / 2.0, cx - sx / 2.0
    uy, ly = cy + sy / 2.0, cy - sy / 2.0
    v = np.minimum(ux, uy) - np.maximum(lx, ly)

    f = sigma(v, cfg)
    g = sigma(sx, cfg)
    inter = np.prod(f, axis=-1)
    vol = np.prod(g, axis=-1)
    out = inter / vol

    # d nbo / d v_d and the direct volume term through the source size.
    dv = out[..., None] * sigma_grad(v, cfg) / f
    d_direct_sx = -out[..., None] * sigma_grad(sx, cfg) / g

    a_u = (ux <= uy).astype(np.float64)  # min tie -> source
    a_l = (lx >= ly).astype(np.float64)  # max tie -> source
    spg_x = softplus_grad(sx_raw)
    spg_y = softplus_grad(sy_raw)

    d_cx = dv * (a_u - a_l)
    d_sx = (dv * (a_u + a_l) / 2.0 + d_direct_sx) * spg_x
    d_cy = dv * ((1.0 - a_u) - (1.0 - a_l))
    d_sy = dv * ((2.0 - a_u - a_l) / 2.0) * spg_y
    return out, d_cx, d_sx, d_cy, d_sy


def nbo_gradient(px: BoxParams, py: BoxParams, cfg: SmoothingConfig):
    """Analytic (d nbo/d px, d nbo/d py), each as a BoxParams of partials."""
    _, d_cx, d_sx, d_cy, d_sy = nbo_grad_batch(
        px.center[None], px.size_raw[None], py.center[None], py.size_raw[None], cfg
    )
    return BoxParams(d_cx[0], d_sx[0]), BoxParams(d_cy[0], d_sy[0])


def box_table_to_json(ids, lowers, uppers) -> str:
    entries = [
        {"id": i, "lower": list(map(float, lo)), "upper": list(map(float, up))}
        for i, lo, up in zip(ids, lowers, uppers)
    ]
    return json.dumps({"boxes": entries}, indent=2, sort_keys=True)
