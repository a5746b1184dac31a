"""Bin-based metric depth.

Each pixel carries a categorical distribution over depth-bin centers; the
prediction is the expectation sum_k p(k) * c(k). Probabilities come from a
cumulative-link ordinal construction over boundary logits (plain softmax
available as a fallback), and the base centers are refined per pixel by a
tanh-bounded shift so the per-pixel centers stay strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ParameterError, ShapeError
from .numkit import (
    MlpParams, Tensor, TokenSet, as_tensor, matmul, mlp, rms_norm, softmax, stack,
)
from .numkit.tensor import _check_finite
from .recon import _patch_grid, upsample_tensor


@dataclass
class BinConfig:
    """Shared bin layout: strictly increasing positive centers in meters."""

    centers: np.ndarray        # [N] base centers c_k
    d_min: float
    d_max: float
    max_shift: float = 0.3     # fraction of the local bin width, must stay < 0.5

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        self.centers = c
        if c.ndim != 1 or c.size < 2:
            raise ParameterError("need at least 2 bin centers")
        if self.d_min <= 0 or self.d_min >= self.d_max:
            raise ParameterError("require 0 < d_min < d_max")
        if c[0] < self.d_min or c[-1] > self.d_max or np.any(np.diff(c) <= 0):
            raise ParameterError("centers must be strictly increasing inside [d_min, d_max]")
        if self.max_shift >= 0.5 or self.max_shift < 0:
            raise ParameterError("max_shift must lie in [0, 0.5)")

    @property
    def n_bins(self) -> int:
        return self.centers.size

    def local_widths(self) -> np.ndarray:
        """Per-bin shift budget: the smaller adjacent gap (single gap at edges)."""
        gaps = np.diff(self.centers)
        return np.minimum(np.concatenate([gaps[:1], gaps]), np.concatenate([gaps, gaps[-1:]]))


def init_bins(n: int, d_min: float, d_max: float, max_shift: float = 0.3) -> BinConfig:
    """Log-uniform centers: c_k = exp(ln d_min + (k - 1/2)/N * (ln d_max - ln d_min))."""
    if n < 2:
        raise ParameterError(f"need at least 2 bins, got {n}")
    if d_min <= 0 or d_min >= d_max:
        raise ParameterError("require 0 < d_min < d_max")
    k = np.arange(1, n + 1)
    ln = np.log(d_min) + (k - 0.5) / n * (np.log(d_max) - np.log(d_min))
    return BinConfig(centers=np.exp(ln), d_min=d_min, d_max=d_max, max_shift=max_shift)


def _ordinal_mass(logits: np.ndarray, q_full: np.ndarray, clamped: np.ndarray,
                  out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative-link mass of logits [rows, N] into `out` (may be `clamped`) via
    q_full = [1, q, 0], q = P(depth > boundary_k); returns q and row totals."""
    n = logits.shape[1]
    q_full[:, 0] = 1.0
    q_full[:, n] = 0.0
    q = special.expit(logits[:, 0:n - 1], out=q_full[:, 1:n])
    np.subtract(q_full[:, 0:n], q_full[:, 1:n + 1], out=clamped)  # sums to 1
    np.maximum(clamped, 0.0, out=clamped)
    total = clamped.sum(axis=1, keepdims=True)            # >= 1 by telescoping
    np.divide(clamped, total, out=out)
    return q, total


def _bounded_shift(cfg: BinConfig, raw: np.ndarray, t: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """c_k + budget_k * tanh(raw_k) into `out`, tanh into `t`; returns budget."""
    budget = cfg.max_shift * cfg.local_widths()
    np.tanh(raw, out=t)
    np.multiply(budget, t, out=out)
    out += cfg.centers
    return budget


def _expectation(probs: np.ndarray, centers: np.ndarray, prod=None) -> np.ndarray:
    """Row sums of probs * centers, the products (into `prod`) checked finite."""
    prod = np.multiply(probs, centers, out=prod)
    _check_finite(prod, "mul")
    return prod.sum(axis=1)


def bin_logits_to_probs(logits: Tensor, ordinal: bool = True) -> Tensor:
    """Logits [HW, N] -> per-pixel simplex [HW, N].

    Ordinal mode (cumulative link): sigma(logit_k) models P(depth > boundary_k)
    for the N-1 interior boundaries; with P(>0) = 1 and P(>N) = 0 the bin mass
    is the difference of adjacent exceedance probabilities, clamped at zero and
    renormalized to guard monotonicity violations. The last logit column only
    participates in the softmax fallback. The ordinal map is one graph node;
    its gradient is zero where the clamp is active.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError("bin logits must be [HW, N]")
    if not ordinal:
        return softmax(logits, axis=-1)
    hw, n = logits.shape
    if n < 2:
        raise ShapeError("ordinal normalization needs at least 2 bins")
    clamped, out = np.empty((hw, n)), np.empty((hw, n))
    q, total = _ordinal_mass(logits.data, np.empty((hw, n + 1)), clamped, out)

    def vjp(g):
        g_mass = g / total + (-g * clamped / (total * total)).sum(axis=1, keepdims=True)
        g_raw = g_mass * (clamped > 0.0)                  # zero where the clamp is active
        g_logits = np.zeros((hw, n))
        g_logits[:, 0:n - 1] = (g_raw[:, 1:n] - g_raw[:, 0:n - 1]) * q * (1.0 - q)
        return g_logits

    return Tensor._from_op(out, "ordinal_probs", (logits,), (vjp,))


def bounded_centers(cfg: BinConfig, raw: Tensor) -> Tensor:
    """c_k + max_shift * width_k * tanh(raw_k): rows stay strictly increasing.
    One graph node."""
    if raw.ndim != 2 or raw.shape[1] != cfg.n_bins:
        raise ShapeError("raw shifts must be [rows, n_bins]")
    t, out = np.empty(raw.shape), np.empty(raw.shape)
    budget = _bounded_shift(cfg, raw.data, t, out)
    return Tensor._from_op(out, "bounded_centers", (raw,), (
        lambda g: g * budget * (1.0 - t * t),
    ))


def expected_depth_tensor(probs: Tensor, centers: Tensor) -> Tensor:
    """Per-pixel expectation over the refined centers, one graph node: [HW, N] -> [HW]."""
    if probs.shape != centers.shape:
        raise ShapeError("probs and centers must have equal shapes")
    p, c = probs.data, centers.data
    return Tensor._from_op(_expectation(p, c), "expected_depth", (probs, centers),
                           (lambda g: g[:, None] * c, lambda g: g[:, None] * p))


@dataclass
class MetricDepthParams:
    """Per-pixel bin head operating on bilinearly upsampled patch features."""

    logits_mlp: MlpParams    # C -> N_bins boundary logits
    refine_mlp: MlpParams    # C -> N_bins center shifts
    bins: BinConfig
    ordinal: bool = True
    patch_size: int = 14

    @staticmethod
    def init(rng: np.random.Generator, c: int, bins: BinConfig,
             ordinal: bool = True, patch_size: int = 14) -> "MetricDepthParams":
        return MetricDepthParams(
            logits_mlp=MlpParams.init(rng, c, bins.n_bins, hidden=c),
            refine_mlp=MlpParams.init(rng, c, bins.n_bins, hidden=c, zero_out=True),
            bins=bins, ordinal=ordinal, patch_size=patch_size,
        )

    def tensors(self, prefix: str = "metric") -> dict[str, Tensor]:
        out = self.logits_mlp.tensors(f"{prefix}.logits_mlp")
        out.update(self.refine_mlp.tensors(f"{prefix}.refine_mlp"))
        return out


ROW_BLOCK = 392   # pixels per block of the no-grad head: 8 blocks per 56x56 frame


def _blocked_depth(up: np.ndarray, logits: np.ndarray, raw: np.ndarray,
                   bins: BinConfig) -> np.ndarray:
    """The ordinal head in row blocks through one workspace, with the graph's bits."""
    hw, n = up.shape[0], logits.shape[1]
    lg, probs, rw, q_full = (np.empty((ROW_BLOCK, n + k)) for k in (0, 0, 0, 1))
    depth = np.empty(hw)
    for lo in range(0, hw, ROW_BLOCK):
        up_b, m = up[lo:lo + ROW_BLOCK], min(ROW_BLOCK, hw - lo)
        lg_b = np.matmul(up_b, logits, out=lg[:m])
        _check_finite(lg_b, "matmul")
        _ordinal_mass(lg_b, q_full[:m], probs[:m], probs[:m])
        _check_finite(probs[:m], "ordinal_probs")
        rw_b = np.matmul(up_b, raw, out=rw[:m])
        _check_finite(rw_b, "matmul")
        _bounded_shift(bins, rw_b, rw_b, rw_b)
        _check_finite(rw_b, "bounded_centers")
        depth[lo:lo + m] = _expectation(probs[:m], rw_b, rw_b)
    return depth


def predict_metric_depth(patch_tokens: TokenSet, image_size: tuple[int, int],
                         p: MetricDepthParams) -> Tensor:
    """Patch tokens [P, C] -> in-graph metric depth [HW]; a window's tokens
    [F, P, C] -> [F, HW].

    The two MLPs run per patch, over the whole window at once; their raw
    outputs (boundary logits and unbounded shifts) are bilinearly upsampled
    to pixels frame by frame before the per-pixel sigmoid/tanh
    constructions, which keeps the per-pixel simplex and monotone-center
    guarantees while avoiding per-pixel MLPs.
    """
    h, w = image_size
    gh, gw = _patch_grid(patch_tokens.count, image_size, p.patch_size)
    up = upsample_tensor(gh, gw, h, w)
    feats = rms_norm(patch_tokens.tokens)
    patch_logits = mlp(feats, p.logits_mlp)   # [..., P, N]
    patch_raw = mlp(feats, p.refine_mlp)      # [..., P, N]
    if p.ordinal and not (patch_logits.requires_grad or patch_raw.requires_grad):
        cells = (-1, gh * gw, p.bins.n_bins)
        depth = [_blocked_depth(up.data, lg, rw, p.bins) for lg, rw in
                 zip(patch_logits.data.reshape(cells), patch_raw.data.reshape(cells))]
        return Tensor(np.stack(depth).reshape(*feats.shape[:-2], h * w))
    if feats.ndim == 2:
        return _pixel_depth(up, patch_logits, patch_raw, p)
    return stack([_pixel_depth(up, patch_logits[f], patch_raw[f], p)
                  for f in range(feats.shape[0])])


def _pixel_depth(up: Tensor, patch_logits: Tensor, patch_raw: Tensor,
                 p: MetricDepthParams) -> Tensor:
    """One frame's [P, N] patch outputs -> its metric depth [HW], in-graph."""
    probs = bin_logits_to_probs(matmul(up, patch_logits), ordinal=p.ordinal)
    centers = bounded_centers(p.bins, matmul(up, patch_raw))
    return expected_depth_tensor(probs, centers)
