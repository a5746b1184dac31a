"""Evaluation metrics: relative camera pose, depth, point-cloud overlap.

Pose metrics run over all ordered camera pairs: geodesic relative-rotation
error and the angle between relative-translation directions, thresholded
at 15 degrees, plus mAA(30) = mean over integer thresholds 1..30 of the
fraction of pairs whose max(rotation, translation) error clears the
threshold. Pairs with a zero-length relative translation are excluded
from the translation-dependent metrics with a warning.

All pairs' pose errors come from one batched pass, bit for bit the per-pair
arithmetic. Point-cloud nearest neighbors come from a KD-tree at every size;
unit tests hold it to a brute-force scan by exact equality.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .config import write_json
from .errors import DegenerateInputError, ParameterError, StateError
from .geometry import GROUND_TRUTH, METRIC, CameraModel, DepthMap, rotation_angle_deg
from .patch3d import PointCloud


@dataclass
class MetricsReport:
    pose: dict | None = None
    depth: dict | None = None
    recon: dict | None = None

    def to_json(self) -> dict:
        return asdict(self)

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())


# ----------------------------------------------------------------------
# camera pose
# ----------------------------------------------------------------------

def _relative_poses(cams: list[CameraModel]) -> tuple[np.ndarray, np.ndarray]:
    """[n, n, 3, 3] and [n, n, 3]: (R_ij, t_ij) mapping camera-j coordinates
    into camera i, for every ordered pair."""
    r = np.stack([c.rotation for c in cams])
    t = np.stack([c.translation for c in cams])
    r_ij = r[:, None] @ r.transpose(0, 2, 1)[None]
    t_ij = t[:, None] - (r_ij @ t[None, :, :, None])[..., 0]
    return r_ij, t_ij


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of [m, 3] arrays, one BLAS dot per row as
    `a[k] @ b[k]` would take it, so every bit matches the per-pair form."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _pair_errors(pred: list[CameraModel], gt: list[CameraModel]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per ordered pair (i != j, row-major): the relative-rotation error, the
    relative-translation direction error of the pairs in `keep`, and `keep`,
    the pairs whose relative translations both have nonzero length."""
    off = ~np.eye(len(pred), dtype=bool)
    rp, tp = (x[off] for x in _relative_poses(pred))
    rg, tg = (x[off] for x in _relative_poses(gt))
    rot = rotation_angle_deg(rp @ rg.transpose(0, 2, 1))
    norm_p, norm_g = np.sqrt(_dots(tp, tp)), np.sqrt(_dots(tg, tg))
    keep = ~((norm_p < 1e-12) | (norm_g < 1e-12))
    c = _dots(tp[keep], tg[keep]) / (norm_p[keep] * norm_g[keep])
    return rot, np.degrees(np.arccos(np.clip(c, -1.0, 1.0))), keep


def pose_metrics(pred: list[CameraModel], gt: list[CameraModel]) -> dict:
    """RRA@15, RTA@15, mAA(30), as percentages over ordered camera pairs."""
    if len(pred) != len(gt):
        raise ParameterError("pred/gt camera counts differ")
    if len(pred) < 2:
        raise ParameterError("pose metrics need at least 2 cameras")

    rot, trans, keep = _pair_errors(pred, gt)
    excluded = int(np.count_nonzero(~keep))
    if excluded:
        warnings.warn(f"{excluded} camera pair(s) excluded: zero-length relative translation")

    rra = float(np.mean(rot < 15.0) * 100.0)
    rta = maa = 0.0
    if trans.size:
        # max(r, t) as Python's max takes it: r unless t is greater
        mx = np.where(trans > rot[keep], trans, rot[keep])
        rta = float(np.mean(trans < 15.0) * 100.0)
        maa = float(np.mean([np.mean(mx < tau) for tau in range(1, 31)]) * 100.0)
    return {"RRA@15": rra, "RTA@15": rta, "mAA30": maa}


def depth_metrics(pred: DepthMap, gt: DepthMap) -> dict:
    """AbsRel, RMSE, log10, delta1 over the intersected valid masks."""
    for name, dm in (("pred", pred), ("gt", gt)):
        if dm.scale_kind not in (METRIC, GROUND_TRUTH):
            raise StateError(f"{name} depth must be metric scale, got '{dm.scale_kind}'")
    if pred.shape != gt.shape:
        raise ParameterError("pred/gt depth shapes differ")
    mask = pred.valid_mask & gt.valid_mask
    if not mask.any():
        raise DegenerateInputError("no overlapping valid pixels")
    p = pred.values[mask]
    g = gt.values[mask]
    absrel = float(np.mean(np.abs(p - g) / g))
    rmse = float(np.sqrt(np.mean((p - g) ** 2)))
    log10 = float(np.mean(np.abs(np.log10(p) - np.log10(g))))
    delta1 = float(np.mean(np.maximum(p / g, g / p) < 1.25))
    return {"AbsRel": absrel, "RMSE": rmse, "log10": log10, "delta1": delta1}


# ----------------------------------------------------------------------
# point clouds
# ----------------------------------------------------------------------

def _nearest_distances(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """For every src point, the exact distance to its nearest dst point. An
    unbalanced, non-compact tree answers a predicted cloud's far queries sooner."""
    tree = cKDTree(dst, balanced_tree=False, compact_nodes=False)
    dist, _ = tree.query(src, k=1)
    return np.asarray(dist, dtype=np.float64)


def pointcloud_metrics(pred: PointCloud, gt: PointCloud, tau: float = 0.05) -> dict:
    """Acc/Comp (mean nearest distances) and Prec/Recall/F-score at tau."""
    if len(pred) == 0 or len(gt) == 0:
        raise ParameterError("point clouds must be nonempty")
    if not 0 < tau < np.inf:   # NaN fails too
        raise ParameterError(f"tau must be positive and finite, got {tau}")
    d_pred = _nearest_distances(pred.points, gt.points)
    d_gt = _nearest_distances(gt.points, pred.points)
    acc = float(np.mean(d_pred))
    comp = float(np.mean(d_gt))
    prec = float(np.mean(d_pred < tau))
    rec = float(np.mean(d_gt < tau))
    f = 0.0 if (prec + rec) == 0 else 2.0 * prec * rec / (prec + rec)
    return {"Acc": acc, "Comp": comp, "Prec": prec, "Recall": rec, "Fscore": f}
