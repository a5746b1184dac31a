"""Lifting 2D tokens into 3D patch tokens.

A pixel (i, j) with depth d back-projects through the inverse intrinsics
and inverse pose to the world point R^-1 K^-1 [i, j, 1]^T d - R^-1 t.
Semantic tokens get an MLP embedding of their anchor point added on top:
t3d = lang + embed(anchor). Anchors are sampled at patch centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ParameterError, ShapeError, StateError
from .geometry import GROUND_TRUTH, METRIC, CameraModel, DepthMap, bilinear_sample
from .numkit import MlpParams, Tensor, TokenSet, as_tensor, mlp
from .recon import _patch_grid


@dataclass
class PointCloud:
    points: np.ndarray              # [M, 3] world-frame meters
    colors: np.ndarray | None = None  # [M, 3] in [0, 1]

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(p)):
            raise ParameterError("point coordinates must be finite")
        self.points = p
        if self.colors is not None:
            c = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
            if c.shape[0] != p.shape[0]:
                raise ShapeError("colors count differs from points count")
            self.colors = np.clip(c, 0.0, 1.0)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class Patch3DTokens:
    tokens: Tensor            # [N, C]
    anchor_points: np.ndarray  # [N, 3]

    def __post_init__(self):
        self.anchor_points = np.asarray(self.anchor_points, dtype=np.float64).reshape(-1, 3)
        if self.tokens.shape[0] != self.anchor_points.shape[0]:
            raise ShapeError("token count differs from anchor count")


def _pixels_to_world(ii: np.ndarray, jj: np.ndarray, d: np.ndarray,
                     cam: CameraModel) -> np.ndarray:
    """Pixel columns ii, rows jj and depths d -> [M, 3] world points."""
    rays = np.stack([(ii - cam.cx) / cam.fx, (jj - cam.cy) / cam.fy,
                     np.ones_like(d)], axis=1)
    return (rays * d[:, None] - cam.translation) @ cam.rotation


def backproject(pixel: tuple[float, float], depth: float,
                cam: CameraModel) -> np.ndarray:
    """Pixel (i=column, j=row) plus depth -> world point."""
    if depth <= 0:
        raise DomainError(f"depth must be positive, got {depth}")
    i, j = pixel
    return _pixels_to_world(np.array([i]), np.array([j]), np.array([depth]), cam)[0]


def backproject_grid(depth: DepthMap, cam: CameraModel,
                     mask: np.ndarray | None = None) -> np.ndarray:
    """All valid pixels of a depth map -> [M, 3] world points."""
    m = depth.valid_mask if mask is None else (depth.valid_mask & mask)
    jj, ii = np.nonzero(m)
    return _pixels_to_world(ii, jj, depth.values[jj, ii], cam)


def project(point: np.ndarray, cam: CameraModel) -> tuple[tuple[float, float], float]:
    """World point -> ((i, j), depth); exact inverse of backproject."""
    c = cam.rotation @ np.asarray(point, dtype=np.float64) + cam.translation
    if c[2] <= 0:
        raise DomainError("point is behind the camera")
    i = cam.fx * c[0] / c[2] + cam.cx
    j = cam.fy * c[1] / c[2] + cam.cy
    return (float(i), float(j)), float(c[2])


def positional_embed(points, p: MlpParams) -> Tensor:
    """[N, 3] points -> [N, C] embeddings through the positional MLP."""
    t = as_tensor(points)
    if t.ndim != 2 or t.shape[1] != 3 or p.in_dim != 3:
        raise ShapeError("positional embedding expects [N, 3] points")
    return mlp(t, p)


def patch_anchor_points(depth: DepthMap, cam: CameraModel,
                        patch_size: int) -> np.ndarray:
    """World anchor per patch: depth sampled bilinearly at the patch center."""
    h, w = depth.shape
    if h % patch_size != 0 or w % patch_size != 0:
        raise ShapeError(f"image {h}x{w} not a multiple of patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    cy = np.repeat(np.arange(gh) * patch_size + (patch_size - 1) / 2.0, gw)
    cx = np.tile(np.arange(gw) * patch_size + (patch_size - 1) / 2.0, gh)
    return _pixels_to_world(cx, cy, bilinear_sample(depth.values, cx, cy), cam)


def fuse_tokens(lang: TokenSet, depth: DepthMap, cam: CameraModel,
                p: MlpParams, patch_size: int = 14) -> Patch3DTokens:
    """t3d = lang + positional_embed(anchor), one anchor per patch token."""
    if depth.scale_kind not in (METRIC, GROUND_TRUTH):
        raise StateError(f"fuse_tokens needs metric depth, got '{depth.scale_kind}'")
    _patch_grid(lang.count, depth.shape, patch_size)
    anchors = patch_anchor_points(depth, cam, patch_size)
    emb = positional_embed(anchors, p)
    if emb.shape[1] != lang.dim:
        raise ShapeError("positional embedding dim differs from token dim")
    return Patch3DTokens(tokens=lang.tokens + emb, anchor_points=anchors)


def write_ply(path: str | Path, cloud: PointCloud) -> None:
    """ASCII PLY, deterministic formatting; colors as uchar when present."""
    lines = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
             "property float x", "property float y", "property float z"]
    if cloud.colors is not None:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    lines.append("end_header")
    rows = [f"{x:.10g} {y:.10g} {z:.10g}" for x, y, z in cloud.points]
    if cloud.colors is not None:
        rgb = np.clip(np.round(cloud.colors * 255), 0, 255).astype(int)
        rows = [f"{row} {r} {g} {b}" for row, (r, g, b) in zip(rows, rgb)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines + rows))
        fh.write("\n")


def read_ply(path: str | Path) -> PointCloud:
    """ASCII PLY as written by write_ply; malformed input is a ParameterError.
    A non-ASCII byte reads as U+FFFD, which no header keyword or number matches."""
    with open(path, encoding="ascii", errors="replace") as fh:
        if fh.readline().strip() != "ply":
            raise ParameterError("not a PLY file")
        n = 0
        has_color = False
        for line in fh:
            token = line.strip()
            if token.startswith("element vertex"):
                try:
                    n = int(token.split()[-1])
                except ValueError:
                    raise ParameterError(f"bad PLY vertex count: {token!r}") from None
            elif token.startswith("property uchar red"):
                has_color = True
            elif token == "end_header":
                break
        width = 6 if has_color else 3
        rows = []
        for i in range(n):
            parts = fh.readline().split()
            if len(parts) < width:
                raise ParameterError(f"PLY body ends at vertex {i} of {n}")
            try:
                rows.append([float(v) for v in parts[:3]]
                            + [int(v) / 255.0 for v in parts[3:width]])
            except ValueError:
                raise ParameterError(f"PLY vertex {i} is not numeric") from None
    data = np.array(rows, dtype=np.float64).reshape(-1, width)
    return PointCloud(points=data[:, :3], colors=data[:, 3:] if has_color else None)
