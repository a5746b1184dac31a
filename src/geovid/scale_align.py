"""Real-scale alignment.

One scalar per scene converts relative depth and pose into metric units:
closed-form weighted least squares per image (s = sum w*r*m / sum w*r^2
minimizing sum w (s*r - m)^2), then the median over up to SAMPLE_COUNT
randomly sampled frames. Default weights 1/d_metric down-weight far pixels;
uniform weights are available for the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import MIN_OVERLAP_PIXELS, write_json
from .errors import DegenerateInputError, ParameterError, ShapeError, StateError
from .geometry import METRIC, RELATIVE, CameraModel, DepthMap

SAMPLE_COUNT = 16   # frames a scene's median reads at most


@dataclass
class ScaleEstimate:
    per_image_factors: list[float]
    scene_factor: float
    images_used: list[int]

    def to_json(self) -> dict:
        return {"factors": self.per_image_factors,
                "scene_factor": self.scene_factor,
                "frames": self.images_used}

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())


def per_image_scale(d_rel: DepthMap, d_metric: DepthMap,
                    weights: np.ndarray | None = None) -> float:
    """Closed-form WLS factor for one image pair.

    weights defaults to 1/d_metric over the intersected valid mask.
    """
    if d_rel.shape != d_metric.shape:
        raise ShapeError("depth maps differ in shape")
    mask = d_rel.valid_mask & d_metric.valid_mask
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != d_rel.shape:
            raise ShapeError("weights shape differs from depth maps")
    if not mask.any():
        raise DegenerateInputError("no overlapping valid pixels")
    r = d_rel.values[mask]
    m = d_metric.values[mask]
    w = (1.0 / m) if weights is None else weights[mask]
    denom = float(np.sum(w * r * r))
    if denom <= 0.0:
        raise DegenerateInputError("weighted relative-depth energy is zero")
    return float(np.sum(w * r * m) / denom)


def sample_frames(n: int, sample_count: int, seed: int) -> list[int]:
    """The seeded choice of min(sample_count, n) of n frames, sorted."""
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n, size=min(sample_count, n), replace=False).tolist())


def scene_scale(frames: list[tuple[DepthMap, DepthMap]],
                sample_count: int = SAMPLE_COUNT, seed: int = 0,
                weights: str = "inverse_metric") -> ScaleEstimate:
    """Median of per-image WLS factors over a seeded frame sample.

    Frames with fewer than MIN_OVERLAP_PIXELS valid overlapping pixels are
    skipped before sampling. Even sample counts take the mean of the two
    central factors.
    """
    if not frames:
        raise ParameterError("need at least one frame")
    if sample_count < 1:
        raise ParameterError(f"the frame sample count must be at least 1, got {sample_count}")
    if seed < 0:   # np.random.default_rng takes no negative seed
        raise ParameterError(f"the frame sample seed must be nonnegative, got {seed}")
    if weights not in ("inverse_metric", "uniform"):
        raise ParameterError(f"unknown weighting '{weights}'")
    usable = [idx for idx, (rel, met) in enumerate(frames) if rel.shape == met.shape
              and (rel.valid_mask & met.valid_mask).sum() >= MIN_OVERLAP_PIXELS]
    if not usable:
        raise DegenerateInputError("no frame has enough valid overlap")

    factors, used = [], []
    for idx in (usable[i] for i in sample_frames(len(usable), sample_count, seed)):
        rel, met = frames[idx]
        w = None if weights == "inverse_metric" else np.ones(rel.shape)
        try:
            factors.append(per_image_scale(rel, met, weights=w))
            used.append(idx)
        except DegenerateInputError:
            continue
    if not factors:
        raise DegenerateInputError("all sampled frames are degenerate")
    return ScaleEstimate(per_image_factors=factors,
                         scene_factor=float(np.median(factors)),
                         images_used=used)


def apply_scale(s: float, depth: DepthMap, cam: CameraModel
                ) -> tuple[DepthMap, CameraModel]:
    """Scale depth values and camera translation by s; flip kinds to metric."""
    if s <= 0:
        raise ParameterError(f"scale factor must be positive, got {s}")
    if depth.scale_kind != RELATIVE:
        raise StateError(f"depth is already '{depth.scale_kind}', expected relative")
    if cam.scale_kind != RELATIVE:
        raise StateError(f"camera is already '{cam.scale_kind}', expected relative")
    scaled_depth = DepthMap(depth.values * s, scale_kind=METRIC,
                            valid_mask=depth.valid_mask.copy())
    scaled_cam = CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                             rotation=cam.rotation.copy(),
                             translation=cam.translation * s,
                             scale_kind=METRIC)
    return scaled_depth, scaled_cam
