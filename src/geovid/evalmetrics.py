"""Evaluation metrics: relative camera pose, depth, point-cloud overlap.

Pose metrics run over all ordered camera pairs: geodesic relative-rotation
error and the angle between relative-translation directions, thresholded
at 15 degrees, plus mAA(30) = mean over integer thresholds 1..30 of the
fraction of pairs whose max(rotation, translation) error clears the
threshold. Pairs with a zero-length relative translation are excluded
from the translation-dependent metrics with a warning.

Point-cloud nearest neighbors use a KD-tree above a size cutoff and an
exact O(n^2) scan below it; unit tests hold the two routes to the same
answers.
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

_BRUTE_FORCE_LIMIT = 512   # below this many points the exact scan is used


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

def _relative_pose(cam_i: CameraModel, cam_j: CameraModel
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(R_ij, t_ij) mapping camera-j coordinates into camera i."""
    r_ij = cam_i.rotation @ cam_j.rotation.T
    t_ij = cam_i.translation - r_ij @ cam_j.translation
    return r_ij, t_ij


def _direction_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    c = float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def pose_metrics(pred: list[CameraModel], gt: list[CameraModel]) -> dict:
    """RRA@15, RTA@15, mAA(30), as percentages over ordered camera pairs."""
    if len(pred) != len(gt):
        raise ParameterError("pred/gt camera counts differ")
    if len(pred) < 2:
        raise ParameterError("pose metrics need at least 2 cameras")

    rot_errs = []          # every ordered pair
    trans_errs = []        # pairs with well-defined translation direction
    max_errs = []          # same pairs as trans_errs
    excluded = 0
    n = len(pred)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rp, tp = _relative_pose(pred[i], pred[j])
            rg, tg = _relative_pose(gt[i], gt[j])
            r_err = rotation_angle_deg(rp @ rg.T)
            rot_errs.append(r_err)
            if np.linalg.norm(tp) < 1e-12 or np.linalg.norm(tg) < 1e-12:
                excluded += 1
                continue
            t_err = _direction_angle_deg(tp, tg)
            trans_errs.append(t_err)
            max_errs.append(max(r_err, t_err))
    if excluded:
        warnings.warn(f"{excluded} camera pair(s) excluded: zero-length relative translation")

    rot = np.asarray(rot_errs)
    rra = float(np.mean(rot < 15.0) * 100.0)
    rta = maa = 0.0
    if trans_errs:
        mx = np.asarray(max_errs)
        rta = float(np.mean(np.asarray(trans_errs) < 15.0) * 100.0)
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
    """For every src point, the distance to its nearest dst point."""
    if src.shape[0] * dst.shape[0] <= _BRUTE_FORCE_LIMIT ** 2:
        d2 = ((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
        return np.sqrt(d2.min(axis=1))
    tree = cKDTree(dst)
    dist, _ = tree.query(src, k=1)
    return np.asarray(dist, dtype=np.float64)


def pointcloud_metrics(pred: PointCloud, gt: PointCloud, tau: float = 0.05) -> dict:
    """Acc/Comp (mean nearest distances) and Prec/Recall/F-score at tau."""
    if len(pred) == 0 or len(gt) == 0:
        raise ParameterError("point clouds must be nonempty")
    if tau <= 0:
        raise ParameterError("tau must be positive")
    d_pred = _nearest_distances(pred.points, gt.points)
    d_gt = _nearest_distances(gt.points, pred.points)
    acc = float(np.mean(d_pred))
    comp = float(np.mean(d_gt))
    prec = float(np.mean(d_pred < tau))
    rec = float(np.mean(d_gt < tau))
    f = 0.0 if (prec + rec) == 0 else 2.0 * prec * rec / (prec + rec)
    return {"Acc": acc, "Comp": comp, "Prec": prec, "Recall": rec, "Fscore": f}
