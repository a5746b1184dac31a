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
from .recon import _patch_grid, upsample_matrix, upsample_rows, upsample_tensor


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
    if d_min <= 0 or d_min >= d_max:
        raise ParameterError("require 0 < d_min < d_max")
    k = np.arange(1, n + 1)
    ln = np.log(d_min) + (k - 0.5) / n * (np.log(d_max) - np.log(d_min))
    return BinConfig(centers=np.exp(ln), d_min=d_min, d_max=d_max, max_shift=max_shift)


ROW_BLOCK = 392   # pixel rows per block of the head's loops: 8 blocks per 56x56 frame
Grid = tuple[int, int, int, int]   # (gh, gw, h, w): a gh x gw patch grid upsampled to h x w


def _row_blocks(hw: int):
    """(lo, hi) bounds of the ROW_BLOCK-row blocks covering hw rows."""
    return ((lo, min(lo + ROW_BLOCK, hw)) for lo in range(0, hw, ROW_BLOCK))


def _workspace(hw: int, n: int, dtype=np.float64) -> np.ndarray:
    """One block's [rows, n] scratch array for a loop over hw rows."""
    return np.empty((min(ROW_BLOCK, hw), n), dtype=dtype)


def _node_rows(x: np.ndarray, grid: Grid | None):
    """(HW, U, inv, blocks) for a head node. It computes U rows: x = [HW, N]'s own
    (inv None), or with a grid (gh, gw, h, w) the distinct upsampled rows of patch
    rows x = [gh*gw, N] (`recon.upsample_rows`; inv maps pixel -> row). `blocks`
    yields (lo, hi, rows) per ROW_BLOCK rows; upsampled rows share one workspace."""
    if x.ndim != 2:
        raise ShapeError("bin inputs must be [HW, N], or [P, N] with an upsample grid")
    if grid is None:
        return len(x), len(x), None, ((lo, hi, x[lo:hi]) for lo, hi in _row_blocks(len(x)))
    if grid[0] * grid[1] != x.shape[0]:
        raise ShapeError(f"upsample from grid {grid} does not take {x.shape[0]} patch rows")
    uniq, inv = upsample_rows(*grid)

    def blocks():
        buf = _workspace(uniq.shape[0], x.shape[1])
        for lo, hi in _row_blocks(uniq.shape[0]):
            rows = np.matmul(uniq[lo:hi], x, out=buf[:hi - lo])
            _check_finite(rows, "matmul")
            yield lo, hi, rows
    return inv.size, uniq.shape[0], inv, blocks()


def _at(inv: np.ndarray | None, lo: int, hi: int):
    """Index of pixels lo:hi into a node's computed rows."""
    return slice(lo, hi) if inv is None else inv[lo:hi]


def _fold_up(grid: Grid | None, g_rows: np.ndarray) -> np.ndarray:
    """The node input's gradient from its pixel rows': the matmul VJP `up.T @ g`."""
    return g_rows if grid is None else np.swapaxes(upsample_matrix(*grid), -1, -2) @ g_rows


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


def _bounded_shift(budget: np.ndarray, centers: np.ndarray, raw: np.ndarray,
                   t: np.ndarray, out: np.ndarray) -> None:
    """centers + budget * tanh(raw) into `out`, tanh into `t` (either may be `raw`)."""
    np.tanh(raw, out=t)
    np.multiply(budget, t, out=out)
    out += centers


def _expectation(probs: np.ndarray, centers: np.ndarray, prod: np.ndarray,
                 out: np.ndarray) -> None:
    """Row sums of probs * centers into `out`, the products (into `prod`) checked finite."""
    np.multiply(probs, centers, out=prod)
    _check_finite(prod, "mul")
    prod.sum(axis=1, out=out)


def bin_logits_to_probs(logits: Tensor, ordinal: bool = True, grid: Grid | None = None) -> Tensor:
    """Logits [HW, N] -> per-pixel simplex [HW, N]; with an upsample grid (gh, gw,
    h, w), patch logits [gh*gw, N] -> the simplex of `upsample_matrix(*grid) @ logits`.

    Ordinal mode (cumulative link): sigma(logit_k) models P(depth > boundary_k)
    for the N-1 interior boundaries; with P(>0) = 1 and P(>N) = 0 the bin mass
    is the difference of adjacent exceedance probabilities, clamped at zero and
    renormalized to guard monotonicity violations. The last logit column only
    participates in the softmax fallback. The ordinal map, upsample included,
    is one graph node; its gradient is zero where the clamp is active. Its
    forward runs on the upsample's distinct rows and its VJP on pixel rows,
    whose upstream gradients differ, both in ROW_BLOCK-row blocks.
    """
    logits = as_tensor(logits)
    hw, u, inv, blocks = _node_rows(logits.data, grid)
    if not ordinal:
        return softmax(logits if grid is None else matmul(upsample_tensor(*grid), logits))
    n = logits.shape[1]
    if n < 2:
        raise ShapeError("ordinal normalization needs at least 2 bins")
    qx, clamped, out = (np.empty((u, n)) for _ in range(3))
    total = np.empty((u, 1))
    for lo, hi, rows in blocks:
        total[lo:hi] = _ordinal_mass(rows, qx[lo:hi], clamped[lo:hi], out[lo:hi])

    def vjp(g):
        # per block of pixels, the ops and order of
        #   g_mass = g / total + (-g * clamped / (total * total)).sum(axis=1)
        #   g_raw = g_mass * (clamped > 0)
        #   g_logits[:, :N-1] = (g_raw[:, 1:] - g_raw[:, :-1]) * q * (1 - q)
        # with -g * c / t^2 taken as g * c / -(t^2), which has the same bits
        g_rows, w, g_mass = np.empty((hw, n)), _workspace(hw, n), _workspace(hw, n)
        active = _workspace(hw, n, bool)
        for lo, hi in _row_blocks(hw):
            at = _at(inv, lo, hi)
            m, g_b, c_b, t_b, q_b = hi - lo, g[lo:hi], clamped[at], total[at], qx[at]
            share = np.multiply(g_b, c_b, out=w[:m])
            share /= -(t_b * t_b)
            np.divide(g_b, t_b, out=g_mass[:m])
            g_mass[:m] += share.sum(axis=1, keepdims=True)
            g_mass[:m] *= np.greater(c_b, 0.0, out=active[:m])   # zero where clamped
            dst, flat = g_rows[lo:hi], g_mass[:m].reshape(-1)
            np.subtract(flat[1:], flat[:-1], out=dst.reshape(-1)[:-1])
            dst[:, -1] = 0.0                                # the last logit gets none
            dst *= q_b
            dst *= np.subtract(1.0, q_b, out=w[:m])
        return _fold_up(grid, g_rows)

    return Tensor._from_op(out[_at(inv, 0, hw)], "ordinal_probs", (logits,), (vjp,))


def bounded_centers(cfg: BinConfig, raw: Tensor, grid: Grid | None = None) -> Tensor:
    """c_k + max_shift * width_k * tanh(raw_k): rows stay strictly increasing.
    With an upsample grid, raw is [gh*gw, n_bins] and the shift applies to its
    bilinear upsample. One graph node, run as `bin_logits_to_probs`'s."""
    hw, u, inv, blocks = _node_rows(raw.data, grid)
    if raw.shape[1] != cfg.n_bins:
        raise ShapeError("raw shifts must be [rows, n_bins]")
    n, budget = cfg.n_bins, cfg.shift_budget()
    t, out = np.empty((u, n)), np.empty((u, n))
    for lo, hi, rows in blocks:
        _bounded_shift(budget, cfg.centers, rows, t[lo:hi], out[lo:hi])

    def vjp(g):
        # g * budget * (1 - t * t), block by block
        g_rows, w = np.empty((hw, n)), _workspace(hw, n)
        for lo, hi in _row_blocks(hw):
            t_b = t[_at(inv, lo, hi)]
            slope = np.multiply(t_b, t_b, out=w[:hi - lo])
            np.subtract(1.0, slope, out=slope)
            np.multiply(g[lo:hi], budget, out=g_rows[lo:hi])
            g_rows[lo:hi] *= slope
        return _fold_up(grid, g_rows)

    return Tensor._from_op(out[_at(inv, 0, hw)], "bounded_centers", (raw,), (vjp,))


def expected_depth_tensor(probs: Tensor, centers: Tensor) -> Tensor:
    """Per-pixel expectation over the refined centers, one graph node: [HW, N] -> [HW]."""
    if probs.shape != centers.shape:
        raise ShapeError("probs and centers must have equal shapes")
    p, c = probs.data, centers.data
    hw = p.shape[0]
    depth, prod = np.empty(hw), _workspace(hw, p.shape[1])
    for lo, hi in _row_blocks(hw):
        _expectation(p[lo:hi], c[lo:hi], prod[:hi - lo], depth[lo:hi])
    return Tensor._from_op(depth, "expected_depth", (probs, centers),
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


def _blocked_depth(grid: Grid, logits: np.ndarray, raw: np.ndarray,
                   bins: BinConfig) -> np.ndarray:
    """The ordinal head on the upsample's distinct rows, spread to pixels: the graph's bits."""
    (_, u, inv, lgs), (*_, rws) = _node_rows(logits, grid), _node_rows(raw, grid)
    probs, budget, depth = _workspace(u, logits.shape[1]), bins.shift_budget(), np.empty(u)
    for (lo, hi, lg_b), (*_, rw_b) in zip(lgs, rws):
        m = hi - lo
        _ordinal_mass(lg_b, lg_b, probs[:m], probs[:m])
        _check_finite(probs[:m], "ordinal_probs")
        _bounded_shift(budget, bins.centers, rw_b, rw_b, rw_b)
        _check_finite(rw_b, "bounded_centers")
        _expectation(probs[:m], rw_b, rw_b, depth[lo:hi])
    return depth[inv]


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
    grid = (gh, gw, h, w)
    feats = rms_norm(patch_tokens.tokens)
    patch_logits = mlp(feats, p.logits_mlp)   # [..., P, N]
    patch_raw = mlp(feats, p.refine_mlp)      # [..., P, N]
    if p.ordinal and not (patch_logits.requires_grad or patch_raw.requires_grad):
        cells = (-1, gh * gw, p.bins.n_bins)
        depth = [_blocked_depth(grid, lg, rw, p.bins) for lg, rw in
                 zip(patch_logits.data.reshape(cells), patch_raw.data.reshape(cells))]
        return Tensor(np.stack(depth).reshape(*feats.shape[:-2], h * w))

    def frame(lg: Tensor, rw: Tensor) -> Tensor:   # [P, N] outputs -> depth [HW]
        return expected_depth_tensor(bin_logits_to_probs(lg, p.ordinal, grid),
                                     bounded_centers(p.bins, rw, grid))
    if feats.ndim == 2:
        return frame(patch_logits, patch_raw)
    return stack([frame(patch_logits[f], patch_raw[f]) for f in range(feats.shape[0])])
