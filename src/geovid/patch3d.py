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

from .errors import DomainError, ParameterError, ShapeError, StateError, named
from .geometry import GROUND_TRUTH, METRIC, CameraModel, DepthMap, bilinear_sample
from .numkit import MlpParams, Tensor, TokenSet, as_tensor, mlp
from .recon import _patch_grid


@dataclass
class PointCloud:
    points: np.ndarray   # [M, 3] world-frame meters

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(p)):
            raise ParameterError("point coordinates must be finite")
        self.points = p

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


def _ply_header(n: int) -> bytes:
    """write_ply's header for n vertices, and the only one read_ply reads: a
    binary PLY file (Turk, Stanford 1994) of little-endian double x, y, z."""
    return (b"ply\nformat binary_little_endian 1.0\nelement vertex %d\nproperty double x\n"
            b"property double y\nproperty double z\nend_header\n" % n)


def write_ply(path: str | Path, cloud: PointCloud) -> None:
    """The header, then the [M, 3] points as little-endian doubles: read_ply
    gives back the same float64 bits."""
    with open(path, "wb") as fh:
        fh.write(_ply_header(len(cloud)))
        fh.write(np.ascontiguousarray(cloud.points, dtype="<f8"))


def read_ply(path: str | Path) -> PointCloud:
    """The cloud of a file with write_ply's header and exactly its 24 bytes
    per vertex; any other file is a ParameterError naming it. The vertex
    count is checked against the file size before anything is allocated."""
    try:
        with open(path, "rb") as fh:
            head = b"".join(fh.readline(64) for _ in range(3))   # ply, format, vertex count
            if head.startswith(b"ply\nformat ascii 1.0\n"):
                raise ParameterError(f"{path} is an ASCII PLY file of an older layout: "
                                     f"rerun `geovid infer` to write it as binary doubles")
            count = head.partition(b"element vertex ")[2].rstrip(b"\n")
            n = int(count) if count.isdigit() else 0
            header = _ply_header(n)
            fh.seek(0)
            if fh.read(len(header)) != header:
                raise ParameterError(f"{path} has a PLY header other than write_ply's "
                                     f"binary little-endian double x, y, z")
            left = fh.seek(0, 2) - len(header)
            if left != 24 * n:
                raise ParameterError(f"{path}: PLY body has {left} bytes for {n} vertices "
                                     f"of 24 bytes")
            fh.seek(len(header))
            points = np.frombuffer(fh.read(left), dtype="<f8").reshape(n, 3)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}") from None
    return named(path, PointCloud, points)
