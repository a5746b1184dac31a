"""Bin-based metric depth.

Each pixel carries a categorical distribution over depth-bin centers; the
prediction is the expectation sum_k p(k) * c(k). Probabilities come from a
cumulative-link ordinal construction over boundary logits, and the base
centers are refined per pixel by a tanh-bounded shift so the per-pixel
centers stay strictly increasing. One graph node, `ordinal_depth`, runs
the head on a whole window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ParameterError, ShapeError
from .numkit import MlpParams, Tensor, TokenSet, as_tensor, mlp, rms_norm, tensor
from .numkit.tensor import _check_finite
from .recon import _patch_grid, upsample_rows


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

    def shift_budget(self) -> np.ndarray:
        """Per-bin bound on a center's shift: max_shift times its local width."""
        return self.max_shift * self.local_widths()


def init_bins(n: int, d_min: float, d_max: float, max_shift: float = 0.3) -> BinConfig:
    """Log-uniform centers: c_k = exp(ln d_min + (k - 1/2)/N * (ln d_max - ln d_min))."""
    if n < 2:
        raise ParameterError(f"need at least 2 bins, got {n}")
    if not 0 < d_min < d_max < float("inf"):   # NaN fails too
        raise ParameterError(f"require 0 < d_min < d_max < inf, got {d_min} and {d_max}")
    k = np.arange(1, n + 1)
    ln = np.log(d_min) + (k - 0.5) / n * (np.log(d_max) - np.log(d_min))
    return BinConfig(centers=np.exp(ln), d_min=d_min, d_max=d_max, max_shift=max_shift)


ROW_BLOCK = 392   # rows per block of the head's loops: 8 blocks per 56x56 frame
Grid = tuple[int, int, int, int]   # (gh, gw, h, w): a gh x gw patch grid upsampled to h x w


def _row_blocks(hw: int):
    """(lo, hi) bounds of the ROW_BLOCK-row blocks covering hw rows."""
    return ((lo, min(lo + ROW_BLOCK, hw)) for lo in range(0, hw, ROW_BLOCK))


def _ordinal_mass(logits: np.ndarray, qx: np.ndarray, clamped: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Cumulative-link mass of logits [rows, N] into `out` (may be `clamped`).

    `qx` (may be `logits`) receives the exceedance probabilities
    q_k = P(depth > boundary_k) as [q_1 .. q_{N-1}, 0], so the mass
    [1 - q_1, q_1 - q_2, .., q_{N-1} - 0] is one flat subtract over the
    contiguous rows and a fix-up of column 0. Returns the row totals.
    """
    special.expit(logits, out=qx)
    qx[:, -1] = 0.0
    flat_q = qx.reshape(-1)
    np.subtract(flat_q[:-1], flat_q[1:], out=clamped.reshape(-1)[1:])  # sums to 1
    np.subtract(1.0, qx[:, 0], out=clamped[:, 0])
    np.maximum(clamped, 0.0, out=clamped)
    total = clamped.sum(axis=1, keepdims=True)            # >= 1 by telescoping
    np.divide(clamped, total, out=out)
    return total


def _ordinal_grad(g: np.ndarray, clamped: np.ndarray, total: np.ndarray, qx: np.ndarray,
                  out: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ordinal mass's VJP: the logits' gradient into `out` (may be `g`),
    returned, from the probs' gradient `g`; `w` is scratch, all [rows, N] as
    `_ordinal_mass`'s state, and total [rows, 1]. The ops and order of
      g_mass = g / total + (-g * clamped / (total * total)).sum(axis=1)
      g_raw = g_mass * (clamped > 0)
      g_logits[:, :N-1] = (g_raw[:, 1:] - g_raw[:, :-1]) * q * (1 - q)
    with -g * c / t^2 taken as g * c / -(t^2), which has the same bits."""
    share = np.multiply(g, clamped, out=w)
    share /= -(total * total)
    shared = share.sum(axis=1, keepdims=True)
    g_mass = np.divide(g, total, out=w)
    g_mass += shared
    g_mass *= np.greater(clamped, 0.0, out=out)          # zero where clamped
    flat = g_mass.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=out.reshape(-1)[:-1])
    out[:, -1] = 0.0                                    # the last logit gets none
    out *= qx
    out *= np.subtract(1.0, qx, out=w)
    return out


def _bounded_shift(budget: np.ndarray, centers: np.ndarray, raw: np.ndarray,
                   t: np.ndarray, out: np.ndarray) -> None:
    """centers + budget * tanh(raw) into `out`, tanh into `t` (either may be `raw`)."""
    np.tanh(raw, out=t)
    np.multiply(budget, t, out=out)
    out += centers


def _shift_grad(g: np.ndarray, t: np.ndarray, budget: np.ndarray,
                out: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The bounded shift's VJP g * budget * (1 - t * t) into `out` (may be `g`),
    returned; `w` is scratch (may be `t`)."""
    slope = np.multiply(t, t, out=w)
    np.subtract(1.0, slope, out=slope)
    np.multiply(g, budget, out=out)
    out *= slope
    return out


def _expectation(probs: np.ndarray, centers: np.ndarray, prod: np.ndarray,
                 out: np.ndarray) -> None:
    """Row sums of probs * centers into `out`, the products (into `prod`) checked finite."""
    np.multiply(probs, centers, out=prod)
    _check_finite(prod, "mul")
    prod.sum(axis=1, out=out)


def bin_logits_to_probs(logits: Tensor) -> Tensor:
    """Logits [HW, N] -> per-pixel simplex [HW, N], as one graph node.

    Cumulative link: sigma(logit_k) models P(depth > boundary_k) for the N-1
    interior boundaries; with P(>0) = 1 and P(>N) = 0 the bin mass is the
    difference of adjacent exceedance probabilities, clamped at zero and
    renormalized to guard monotonicity violations. The last logit column is
    unused. The gradient is zero where the clamp is active.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError("bin logits must be [HW, N]")
    if logits.shape[1] < 2:
        raise ShapeError("ordinal normalization needs at least 2 bins")
    qx, clamped, out = (np.empty(logits.shape) for _ in range(3))
    total = _ordinal_mass(logits.data, qx, clamped, out)
    return Tensor._from_op(out, "ordinal_probs", (logits,), (lambda g: _ordinal_grad(
        g, clamped, total, qx, np.empty_like(qx), np.empty_like(qx)),))


def bounded_centers(cfg: BinConfig, raw: Tensor) -> Tensor:
    """c_k + max_shift * width_k * tanh(raw_k): rows stay strictly increasing.
    One graph node over raw shifts [HW, n_bins]."""
    if raw.ndim != 2 or raw.shape[1] != cfg.n_bins:
        raise ShapeError("raw shifts must be [rows, n_bins]")
    budget = cfg.shift_budget()
    t, out = np.empty(raw.shape), np.empty(raw.shape)
    _bounded_shift(budget, cfg.centers, raw.data, t, out)
    return Tensor._from_op(out, "bounded_centers", (raw,), (
        lambda g: _shift_grad(g, t, budget, np.empty_like(t), np.empty_like(t)),))


def expected_depth_tensor(probs: Tensor, centers: Tensor) -> Tensor:
    """Per-pixel expectation over the refined centers, one graph node: [HW, N] -> [HW]."""
    if probs.shape != centers.shape:
        raise ShapeError("probs and centers must have equal shapes")
    p, c = probs.data, centers.data
    depth = np.empty(p.shape[0])
    _expectation(p, c, np.empty_like(p), depth)
    return Tensor._from_op(depth, "expected_depth", (probs, centers),
                           (lambda g: g[:, None] * c, lambda g: g[:, None] * p))


def ordinal_depth(grid: Grid, logits: Tensor, raw: Tensor, bins: BinConfig) -> Tensor:
    """The ordinal head as one graph node: patch logits and raw shifts [P, N]
    -> the expected depth [h*w] of their bilinear upsample to h x w, with the
    bits of `expected_depth_tensor(bin_logits_to_probs(up @ logits),
    bounded_centers(bins, up @ raw))` for up = `upsample_matrix(*grid)`; its
    gradients sum in another order, so only within rounding of that graph's. A
    window's [F, P, N] inputs give [F, h*w], frame by frame with those bits.

    The forward runs on the upsample's distinct rows (`recon.upsample_rows`) in
    ROW_BLOCK-row blocks of reused buffers and spreads depth to pixels. Both
    VJPs are linear in the upstream gradient, and a row's pixels share its
    state. So for each operand that will record a gradient, the forward also
    keeps the depth's Jacobian row for every distinct row ([F, U, N]: the
    ordinal VJP of the centers, or the shift VJP of the probs), and that VJP
    is, per frame, the upstream summed per row (`np.bincount`) scaling them,
    then one `uniq.T @`. With no such operand (under `no_grad`, say), three
    block buffers are all it allocates, and no [HW, N] or [U, N] array.
    """
    n = bins.n_bins
    if logits.ndim not in (2, 3) or logits.shape != raw.shape or n != logits.shape[-1]:
        raise ShapeError(f"logits and raw shifts must both be [P, {n}] or [F, P, {n}]")
    if grid[0] * grid[1] != logits.shape[-2]:
        raise ShapeError(f"upsample from grid {grid} does not take {logits.shape[-2]} patch rows")
    uniq, inv = upsample_rows(*grid)
    u, budget, block = uniq.shape[0], bins.shift_budget(), min(ROW_BLOCK, uniq.shape[0])
    lg, rw = (x.data.reshape(-1, *x.shape[-2:]) for x in (logits, raw))
    frames = lg.shape[0]
    jac_lg, jac_rw = (np.empty((frames, u, n)) if tensor._GRAD_ENABLED and x.requires_grad
                      else None for x in (logits, raw))
    # logits rows -> q; raw rows -> tanh -> centers; probs -> products -> scratch
    qx, probs, t = (np.empty((block, n)) for _ in range(3))
    clamped = probs if jac_lg is None else np.empty((block, n))   # read by jac_lg's rows
    centers = t if jac_rw is None else np.empty((block, n))       # tanh read by jac_rw's
    depth = np.empty((frames, u))
    for f in range(frames):
        for lo, hi in _row_blocks(u):
            q, c, p, th, ce = (x[:hi - lo] for x in (qx, clamped, probs, t, centers))
            for x, rows in ((lg[f], q), (rw[f], th)):
                np.matmul(uniq[lo:hi], x, out=rows)
                _check_finite(rows, "matmul")
            total = _ordinal_mass(q, q, c, p)
            _check_finite(p, "ordinal_probs")
            _bounded_shift(budget, bins.centers, th, th, ce)
            _check_finite(ce, "bounded_centers")
            if jac_rw is not None:   # the shifts' VJP at an upstream of probs
                _shift_grad(p, th, budget, jac_rw[f, lo:hi], th)
            _expectation(p, ce, p, depth[f, lo:hi])
            if jac_lg is not None:   # the ordinal VJP at an upstream of centers
                _ordinal_grad(ce, c, total, q, jac_lg[f, lo:hi], p)

    def row_vjp(jac):
        def vjp(g):
            g, out = g.reshape(frames, inv.size), np.empty(lg.shape)
            for f in range(frames):
                out[f] = uniq.T @ (np.bincount(inv, g[f], minlength=u)[:, None] * jac[f])
            return out.reshape(logits.shape)
        return vjp

    return Tensor._from_op(depth[:, inv].reshape(*logits.shape[:-2], inv.size),
                           "ordinal_depth", (logits, raw), (row_vjp(jac_lg), row_vjp(jac_rw)))


@dataclass
class MetricDepthParams:
    """Per-pixel bin head operating on bilinearly upsampled patch features."""

    logits_mlp: MlpParams    # C -> N_bins boundary logits
    refine_mlp: MlpParams    # C -> N_bins center shifts
    bins: BinConfig
    patch_size: int = 14

    @staticmethod
    def init(rng: np.random.Generator, c: int, bins: BinConfig,
             patch_size: int = 14) -> "MetricDepthParams":
        return MetricDepthParams(
            logits_mlp=MlpParams.init(rng, c, bins.n_bins, hidden=c),
            refine_mlp=MlpParams.init(rng, c, bins.n_bins, hidden=c, zero_out=True),
            bins=bins, patch_size=patch_size,
        )

    def tensors(self, prefix: str = "metric") -> dict[str, Tensor]:
        out = self.logits_mlp.tensors(f"{prefix}.logits_mlp")
        out.update(self.refine_mlp.tensors(f"{prefix}.refine_mlp"))
        return out


def predict_metric_depth(patch_tokens: TokenSet, image_size: tuple[int, int],
                         p: MetricDepthParams) -> Tensor:
    """Patch tokens [P, C] -> in-graph metric depth [HW]; a window's tokens
    [F, P, C] -> [F, HW].

    The two MLPs run per patch, over the whole window at once; their raw
    outputs (boundary logits and unbounded shifts) go to one `ordinal_depth`
    node, which upsamples them bilinearly to pixels before the per-pixel
    sigmoid/tanh constructions. That keeps the per-pixel simplex and
    monotone-center guarantees while avoiding per-pixel MLPs.
    """
    h, w = image_size
    gh, gw = _patch_grid(patch_tokens.count, image_size, p.patch_size)
    feats = rms_norm(patch_tokens.tokens)
    return ordinal_depth((gh, gw, h, w), mlp(feats, p.logits_mlp), mlp(feats, p.refine_mlp),
                         p.bins)
