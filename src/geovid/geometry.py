"""Pinhole cameras, depth maps and quaternion helpers.

Conventions used everywhere in the package:
  * rotation R maps world -> camera; camera center is -R^T t
  * camera frame is x-right, y-down, z-forward; points with z > 0 are visible
  * pixel coordinate (i, j) = (column, row); pixel centers sit at integer
    coordinates; the principal point (cx, cy) lives in the same units
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import read_json, write_json
from .errors import ParameterError, ShapeError, named

RELATIVE = "relative"
METRIC = "metric"
GROUND_TRUTH = "ground_truth"

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus a rigid world->camera pose."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray      # [3, 3] world -> camera
    translation: np.ndarray   # [3]
    scale_kind: str = RELATIVE

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if r.shape != (3, 3):
            raise ShapeError(f"rotation must be 3x3, got {r.shape}")
        if not (self.fx > 0 and self.fy > 0):   # NaN fails too
            raise ParameterError("focal lengths must be positive")
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy, *t]).all():
            raise ParameterError("intrinsics and translation must be finite")
        if self.scale_kind not in (RELATIVE, METRIC, GROUND_TRUTH):
            raise ParameterError(f"unknown scale kind '{self.scale_kind}'")
        if not np.abs(r @ r.T - np.eye(3)).max() <= _ORTHO_TOL:
            raise ParameterError("rotation is not orthonormal within 1e-9")
        if not abs(np.linalg.det(r) - 1.0) <= _ORTHO_TOL:
            raise ParameterError("rotation determinant is not +1 within 1e-9")

    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation

    def to_json(self) -> dict:
        return {
            "quaternion": rotation_to_quaternion(self.rotation).tolist(),
            "translation": self.translation.tolist(),
            "fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
            "scale_kind": self.scale_kind,
        }

    @staticmethod
    def from_json(obj: dict) -> "CameraModel":
        """A camera from `to_json`'s fields; a malformed one is a ParameterError."""
        try:
            q = np.asarray(obj["quaternion"], dtype=np.float64).reshape(4)
            top = np.abs(q).max()
            if not (np.isfinite(top) and top > 0):   # NaN fails too
                raise ParameterError(f"quaternion {q.tolist()} is not finite and nonzero")
            q = np.ldexp(q, -np.frexp(top)[1])   # exact scaling, so the norm cannot overflow
            return CameraModel(
                fx=float(obj["fx"]), fy=float(obj["fy"]),
                cx=float(obj["cx"]), cy=float(obj["cy"]),
                rotation=quaternion_to_rotation(q / np.linalg.norm(q)),
                translation=np.asarray(obj["translation"], dtype=np.float64),
                scale_kind=obj.get("scale_kind", RELATIVE),
            )
        except (KeyError, TypeError, ValueError, ShapeError) as exc:
            raise ParameterError(f"malformed camera: {exc!r}") from None

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @staticmethod
    def load(path: str | Path) -> "CameraModel":
        return named(path, CameraModel.from_json,
                     read_json(path, "quaternion", "translation", "fx", "fy", "cx", "cy"))


@dataclass
class DepthMap:
    """H x W positive depths with a validity mask and a scale tag."""

    values: np.ndarray
    scale_kind: str = RELATIVE
    valid_mask: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ShapeError(f"depth must be [H, W] with H, W >= 1, got {v.shape}")
        self.values = v
        self.valid_mask = (np.ones(v.shape, dtype=bool) if self.valid_mask is None
                           else np.asarray(self.valid_mask, dtype=bool))
        if self.valid_mask.shape != v.shape:
            raise ShapeError("valid mask shape differs from values")
        if self.scale_kind not in (RELATIVE, METRIC, GROUND_TRUTH):
            raise ParameterError(f"unknown scale kind '{self.scale_kind}'")
        valid = v[self.valid_mask]
        if not np.all((valid > 0) & (valid < np.inf)):   # False for NaN
            raise ParameterError("valid depths must be finite and strictly positive")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


# ----------------------------------------------------------------------
# quaternions (w, x, y, z)
# ----------------------------------------------------------------------

def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    """Unit quaternion [w, x, y, z] -> 3x3 rotation matrix."""
    w, x, y, z = np.asarray(q, dtype=np.float64).reshape(4)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """3x3 rotation -> unit quaternion [w, x, y, z], w >= 0 (Shepperd)."""
    r = np.asarray(r, dtype=np.float64)
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def rotation_angle_deg(r: np.ndarray) -> float | np.ndarray:
    """Geodesic angle of a rotation matrix or of each in a stack, in degrees."""
    c = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))


def look_at_rotation(position: np.ndarray, target: np.ndarray,
                     up: np.ndarray = np.array([0.0, 0.0, 1.0])) -> np.ndarray:
    """world->camera rotation with +z toward `target` and image-y pointing down."""
    position = np.asarray(position, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - position
    n = np.linalg.norm(fwd)
    if n < 1e-12:
        raise ParameterError("look-at target coincides with the camera position")
    z = fwd / n
    x = np.cross(z, up)
    nx = np.linalg.norm(x)
    if nx < 1e-9:
        raise ParameterError("view direction parallel to the up vector")
    x = x / nx
    y = np.cross(z, x)
    return np.stack([x, y, z], axis=0)


def bilinear_sample(img: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear lookup at continuous pixel coords (x=column, y=row).

    Pixel centers at integers; coordinates are clamped to the border.
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, w - 1.0)
    y = np.clip(np.asarray(y, dtype=np.float64), 0.0, h - 1.0)
    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bot * fy
