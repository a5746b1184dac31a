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
            if not np.all(np.isfinite(c)):
                raise ParameterError("point colors must be finite")
            self.colors = np.clip(c, 0.0, 1.0)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class Patch3DTokens:
    tokens: Tensor             # [F, N, C], one token set per frame
    anchor_points: np.ndarray  # [F, N, 3]

    def __post_init__(self):
        self.anchor_points = np.asarray(self.anchor_points, dtype=np.float64)
        if self.anchor_points.shape != (*self.tokens.shape[:-1], 3):
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
    """[F, N, 3] points -> [F, N, C] embeddings through the positional MLP
    ([N, 3] -> [N, C] too)."""
    t = as_tensor(points)
    if t.ndim not in (2, 3) or t.shape[-1] != 3 or p.in_dim != 3:
        raise ShapeError("positional embedding expects [F, N, 3] or [N, 3] points")
    return mlp(t, p)


def fuse_tokens(lang: TokenSet, depths: list[DepthMap], cams: list[CameraModel],
                p: MlpParams, patch_size: int = 14) -> Patch3DTokens:
    """t3d = lang + positional_embed(anchor) for a window's [F, N, C] tokens:
    one anchor per patch token, its frame's depth sampled bilinearly at the
    patch center and back-projected through its frame's camera."""
    if lang.tokens.ndim != 3 or not lang.tokens.shape[0] == len(depths) == len(cams):
        raise ShapeError("fuse_tokens needs [F, N, C] tokens, F depth maps and F cameras")
    anchors = []
    for depth, cam in zip(depths, cams):
        if depth.scale_kind not in (METRIC, GROUND_TRUTH):
            raise StateError(f"fuse_tokens needs metric depth, got '{depth.scale_kind}'")
        gh, gw = _patch_grid(lang.count, depth.shape, patch_size)
        cy = np.repeat(np.arange(gh) * patch_size + (patch_size - 1) / 2.0, gw)
        cx = np.tile(np.arange(gw) * patch_size + (patch_size - 1) / 2.0, gh)
        anchors.append(_pixels_to_world(cx, cy, bilinear_sample(depth.values, cx, cy), cam))
    emb = positional_embed(np.stack(anchors), p)
    if emb.shape[-1] != lang.dim:
        raise ShapeError("positional embedding dim differs from token dim")
    return Patch3DTokens(tokens=lang.tokens + emb, anchor_points=np.stack(anchors))


_PLY_XYZ = ["property float x", "property float y", "property float z"]
_PLY_RGB = ["property uchar red", "property uchar green", "property uchar blue"]
PLY_CHUNK = 4096   # rows per %-format call of write_ply, so no one string holds the cloud


def write_ply(path: str | Path, cloud: PointCloud) -> None:
    """ASCII PLY, deterministic formatting; colors as uchar when present.
    A coordinate whose 10-digit form would read back as inf (within about
    5e-10 of the largest float) is a ParameterError, raised before writing."""
    if len(cloud) and np.isinf(float("%.10g" % np.abs(cloud.points).max())):
        raise ParameterError("a point coordinate this near the largest float "
                             "would be written as inf")
    lines = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"] + _PLY_XYZ
    row, table = "%.10g %.10g %.10g", cloud.points
    if cloud.colors is not None:
        lines += _PLY_RGB
        rgb = np.clip(np.round(cloud.colors * 255), 0, 255)   # integral: %d prints it exactly
        row, table = row + " %d %d %d", np.hstack([table, rgb])
    lines.append("end_header")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        for lo in range(0, len(table), PLY_CHUNK):
            chunk = table[lo:lo + PLY_CHUNK]
            fh.write((row + "\n") * len(chunk) % tuple(chunk.ravel().tolist()))


def read_ply(path: str | Path) -> PointCloud:
    """ASCII PLY with the header write_ply writes and no other: format ascii
    1.0, a vertex count, float x y z, then optionally uchar red green blue.
    Anything else is a ParameterError. A non-ASCII byte reads as U+FFFD,
    which no header line or number matches."""
    with open(path, encoding="ascii", errors="replace") as fh:
        header = []
        for line in fh:   # at most ply, format, count, six properties, end
            header.append(line.strip())
            if header[-1] == "end_header" or len(header) == 10:
                break
        if header[:1] != ["ply"]:
            raise ParameterError("not a PLY file")
        if header[-1] != "end_header":
            raise ParameterError("PLY header has no end_header where write_ply puts it")
        if header[1] != "format ascii 1.0":
            raise ParameterError(f"unsupported PLY format: {header[1]!r}")
        count = header[2].split()
        if count[:2] != ["element", "vertex"] or len(count) != 3 or not count[2].isdecimal():
            raise ParameterError(f"bad PLY vertex element: {header[2]!r}")
        n = int(count[2])
        props = header[3:-1]
        if props not in (_PLY_XYZ, _PLY_XYZ + _PLY_RGB):
            raise ParameterError(f"unsupported PLY properties: {props}")
        width = len(props)
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
    return PointCloud(points=data[:, :3], colors=data[:, 3:] if width == 6 else None)
