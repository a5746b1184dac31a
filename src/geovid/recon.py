"""Global-frame attention backbone plus camera and relative-depth heads.

The backbone alternates frame-local self-attention (each frame's patch
tokens with its camera/register tokens) and global self-attention over all
frames jointly. Blocks are residual attention + residual MLP, bias-free
projections, QK-Norm on by default here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .geometry import RELATIVE, CameraModel, quaternion_to_rotation
from .numkit import (
    MhaParams, MlpParams, Role, Tensor, TokenSet,
    broadcast_to, concat, maximum, mha, mlp, require_role, rms_norm, sigmoid,
    softplus, tan, tmean,
)

FOV_MIN = 0.30   # radians; sigmoid(raw) interpolates inside this range
FOV_MAX = 2.40


@dataclass
class BackboneBlock:
    attn: MhaParams
    mlp: MlpParams


@dataclass
class BackboneParams:
    """Even-indexed blocks attend frame-locally, odd-indexed globally."""

    blocks: list[BackboneBlock]
    camera_init: Tensor     # [1, C] camera token, shared across frames
    register_init: Tensor   # [4, C] register tokens, shared across frames

    def __post_init__(self):
        if len(self.blocks) < 2 or len(self.blocks) % 2 != 0:
            raise ParameterError("backbone needs an even block count >= 2")
        if self.camera_init.shape[0] < 1 or self.register_init.shape[0] < 1:
            raise ParameterError("need at least one camera and one register token")

    @staticmethod
    def init(rng: np.random.Generator, c: int, heads: int,
             blocks: int = 4) -> "BackboneParams":
        blks = [BackboneBlock(attn=MhaParams.init(rng, c, heads, qk_norm=True,
                                                  out_scale=0.5),
                              mlp=MlpParams.init(rng, c, out_scale=0.5))
                for _ in range(blocks)]
        return BackboneParams(
            blocks=blks,
            camera_init=Tensor(rng.standard_normal((1, c)) / np.sqrt(c),
                               requires_grad=True),
            register_init=Tensor(rng.standard_normal((4, c)) / np.sqrt(c),
                                 requires_grad=True),
        )

    def tensors(self, prefix: str = "backbone") -> dict[str, Tensor]:
        out = {f"{prefix}.camera_init": self.camera_init,
               f"{prefix}.register_init": self.register_init}
        for i, blk in enumerate(self.blocks):
            out.update(blk.attn.tensors(f"{prefix}.b{i}.attn"))
            out.update(blk.mlp.tensors(f"{prefix}.b{i}.mlp"))
        return out


def _block(x: Tensor, blk: BackboneBlock) -> Tensor:
    """Pre-norm residual block: branch inputs are RMS-normalized so the
    stream cannot amplify multiplicatively across blocks."""
    n = rms_norm(x)
    x = x + mha(n, n, n, blk.attn)
    return x + mlp(rms_norm(x), blk.mlp)


def gfa_backbone(frames: TokenSet, p: BackboneParams) -> tuple[TokenSet, TokenSet]:
    """Refine a window's geometry tokens [F, N, C]; returns the window's patch
    tokens [F, N, C] and camera tokens [F, n_cam, C].

    Camera and register tokens are appended to every frame from the shared
    learned init; register outputs are dropped after the last block. A
    frame-local block runs once over [F, N + 5, C]; a global block runs on
    the same rows as one [F * (N + 5), C] set.
    """
    require_role(frames, Role.GEOM)
    if frames.tokens.ndim != 3:
        raise ShapeError(f"backbone needs [F, N, C] tokens, got {frames.tokens.shape}")
    f, n, c = frames.tokens.shape
    n_cam = p.camera_init.shape[0]
    shared = [broadcast_to(t, (f, *t.shape)) for t in (p.camera_init, p.register_init)]
    x = concat([frames.tokens, *shared], axis=1)
    for i, blk in enumerate(p.blocks):
        x = _block(x, blk) if i % 2 == 0 else _block(x.reshape(-1, c), blk).reshape(x.shape)
    return TokenSet(x[:, 0:n, :], Role.GEOM), TokenSet(x[:, n:n + n_cam, :], Role.CAMERA)


# ----------------------------------------------------------------------
# camera head
# ----------------------------------------------------------------------

@dataclass
class CameraHeadParams:
    """MLP from pooled camera tokens to [quat(4), translation(3), fov(1)].

    The second layer is zero-initialized so the head starts at the identity
    pose (quaternion offset (1,0,0,0), zero translation).
    """

    mlp: MlpParams

    @staticmethod
    def init(rng: np.random.Generator, c: int) -> "CameraHeadParams":
        return CameraHeadParams(mlp=MlpParams.init(rng, c, 8, zero_out=True))

    def tensors(self, prefix: str = "camera_head") -> dict[str, Tensor]:
        return self.mlp.tensors(f"{prefix}.mlp")


@dataclass
class CameraPrediction:
    """Differentiable camera: unit quaternion, translation and intrinsics.

    The quaternion is normalized in-graph, so `rotation_tensor()` is always
    orthonormal. `to_camera()` detaches into a plain CameraModel.
    """

    quat: Tensor          # [4], unit norm
    translation: Tensor   # [3]
    fx: Tensor            # scalar []
    fy: Tensor            # scalar []
    cx: float
    cy: float

    def rotation_tensor(self) -> Tensor:
        return quat_to_rotation(self.quat)

    def to_camera(self, scale_kind: str = RELATIVE) -> CameraModel:
        q = self.quat.data / np.linalg.norm(self.quat.data)
        return CameraModel(
            fx=float(self.fx.data), fy=float(self.fy.data),
            cx=self.cx, cy=self.cy,
            rotation=quaternion_to_rotation(q),
            translation=self.translation.data.copy(),
            scale_kind=scale_kind,
        )


# Rotation entries in row-major order as 2 * sum(sign * q_a * q_b) over
# (sign, a, b) products of the quaternion (w, x, y, z), plus 1 on the diagonal.
_ROTATION_PRODUCTS = (
    ((-1.0, 2, 2), (-1.0, 3, 3)), ((1.0, 1, 2), (-1.0, 0, 3)), ((1.0, 1, 3), (1.0, 0, 2)),
    ((1.0, 1, 2), (1.0, 0, 3)), ((-1.0, 1, 1), (-1.0, 3, 3)), ((1.0, 2, 3), (-1.0, 0, 1)),
    ((1.0, 1, 3), (-1.0, 0, 2)), ((1.0, 2, 3), (1.0, 0, 1)), ((-1.0, 1, 1), (-1.0, 2, 2)),
)


def quat_to_rotation(quat: Tensor) -> Tensor:
    """Unit quaternion [w, x, y, z] -> [3, 3] rotation, or [F, 4] -> [F, 3, 3],
    as one graph node.

    The VJP sums each component's terms entry by entry, product by product,
    which is the order an op-per-scalar graph of the same formula uses, so
    the gradient is bit-identical to that graph's, quaternion by quaternion.
    """
    if quat.ndim not in (1, 2) or quat.shape[-1] != 4:
        raise ShapeError(f"quaternion must be [4] or [F, 4], got {quat.shape}")
    q = list(quat.data.T)   # four components, each a scalar or an [F] column

    def vjp(g):
        g2 = list((g.reshape(*quat.shape[:-1], 9) * 2.0).T)
        grad = [None] * 4
        for k, products in enumerate(_ROTATION_PRODUCTS):
            for sign, a, b in products:
                for i, j in ((a, b), (b, a)):
                    term = sign * g2[k] * q[j]
                    grad[i] = term if grad[i] is None else grad[i] + term
        return np.stack(grad, axis=-1)

    rot = np.stack([quaternion_to_rotation(r) for r in quat.data.reshape(-1, 4)])
    return Tensor._from_op(rot.reshape(*quat.shape[:-1], 3, 3), "quat_to_rotation",
                           (quat,), (vjp,))


def camera_head(camera_tokens: TokenSet, p: CameraHeadParams,
                image_size: tuple[int, int]) -> CameraPrediction:
    """Pooled camera tokens -> relative-scale pose and field-of-view intrinsics."""
    require_role(camera_tokens, Role.CAMERA)
    h, w = image_size
    pooled = rms_norm(tmean(camera_tokens.tokens, axis=0, keepdims=True))  # [1, C]
    raw = mlp(pooled, p.mlp).reshape(8)
    q_raw = raw[0:4] + Tensor(np.array([1.0, 0.0, 0.0, 0.0]))
    q_norm = ((q_raw * q_raw).sum() + 1e-12) ** -0.5
    quat = q_raw * q_norm
    # sigmoid-bounded field of view; raw 0 lands mid-range
    fov = FOV_MIN + (FOV_MAX - FOV_MIN) * sigmoid(raw[7])
    fx = (w / 2.0) / tan(fov * 0.5)
    return CameraPrediction(
        quat=quat,
        translation=raw[4:7],
        fx=fx, fy=fx,  # square pixels
        cx=(w - 1) / 2.0, cy=(h - 1) / 2.0,
    )


# ----------------------------------------------------------------------
# relative-depth head
# ----------------------------------------------------------------------

@dataclass
class DepthHeadParams:
    mlp: MlpParams          # C -> 1 per-patch logit
    patch_size: int = 14

    @staticmethod
    def init(rng: np.random.Generator, c: int, patch_size: int = 14) -> "DepthHeadParams":
        return DepthHeadParams(mlp=MlpParams.init(rng, c, 1, hidden=c),
                               patch_size=patch_size)

    def tensors(self, prefix: str = "depth_head") -> dict[str, Tensor]:
        return self.mlp.tensors(f"{prefix}.mlp")


@functools.lru_cache(maxsize=32)
def upsample_matrix(gh: int, gw: int, h: int, w: int) -> np.ndarray:
    """[h*w, gh*gw] bilinear interpolation from patch-grid cells to pixels.

    Output pixel i maps to grid coordinate (i + 0.5) / patch - 0.5 (half-pixel
    convention), clamped at the grid border.
    """
    ph, pw = h / gh, w / gw
    gy = np.clip((np.arange(h) + 0.5) / ph - 0.5, 0.0, gh - 1.0)
    gx = np.clip((np.arange(w) + 0.5) / pw - 0.5, 0.0, gw - 1.0)
    y0 = np.floor(gy).astype(int)
    x0 = np.floor(gx).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = gy - y0
    fx = gx - x0
    mat = np.zeros((h * w, gh * gw))
    rows = np.arange(h * w)
    yy0 = np.repeat(y0, w); yy1 = np.repeat(y1, w); ffy = np.repeat(fy, w)
    xx0 = np.tile(x0, h); xx1 = np.tile(x1, h); ffx = np.tile(fx, h)
    np.add.at(mat, (rows, yy0 * gw + xx0), (1 - ffy) * (1 - ffx))
    np.add.at(mat, (rows, yy0 * gw + xx1), (1 - ffy) * ffx)
    np.add.at(mat, (rows, yy1 * gw + xx0), ffy * (1 - ffx))
    np.add.at(mat, (rows, yy1 * gw + xx1), ffy * ffx)
    return mat


@functools.lru_cache(maxsize=32)
def upsample_rows(gh: int, gw: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """`upsample_matrix`'s distinct rows [U, gh*gw] in order of first appearance,
    and each pixel's index into them [h*w]; both read-only. Rows repeat where
    the grid coordinate is clamped at the border."""
    mat = upsample_matrix(gh, gw, h, w)
    _, first, inv = np.unique(mat, axis=0, return_index=True, return_inverse=True)
    # argsort(argsort(first)) maps np.unique's sorted order to first-appearance rank
    uniq, inv = mat[np.sort(first)], np.argsort(np.argsort(first))[inv.reshape(-1)]
    uniq.flags.writeable = inv.flags.writeable = False
    return uniq, inv


def _patch_grid(n_tokens: int, image_size: tuple[int, int], ps: int) -> tuple[int, int]:
    h, w = image_size
    if h % ps != 0 or w % ps != 0:
        raise ShapeError(f"image {h}x{w} not a multiple of patch size {ps}")
    gh, gw = h // ps, w // ps
    if n_tokens != gh * gw:
        raise ShapeError(f"{n_tokens} tokens do not tile a {gh}x{gw} patch grid")
    return gh, gw


def depth_head_tensor(patch_tokens: TokenSet, image_size: tuple[int, int],
                      p: DepthHeadParams) -> Tensor:
    """In-graph relative depth [H, W] from patch tokens [P, C], or [F, H, W]
    from a window's [F, P, C]: per-patch logits, bilinear upsample, softplus.

    The upsample is one node that runs on `upsample_rows`' distinct rows and
    gathers them to pixels, with the bits of `upsample_matrix(...) @ logits`.
    Floored at 1e-6 so a diverged logit cannot underflow softplus to an
    exact zero; any logit above -13 is untouched.
    """
    h, w = image_size
    grid = (*_patch_grid(patch_tokens.count, image_size, p.patch_size), h, w)
    logits = mlp(rms_norm(patch_tokens.tokens), p.mlp)  # [..., P, 1]
    uniq, inv = upsample_rows(*grid)
    up = Tensor._from_op((uniq @ logits.data)[..., inv, :], "upsample", (logits,),
                         (lambda g: upsample_matrix(*grid).T @ g,))
    return maximum(softplus(up), 1e-6).reshape(*logits.shape[:-2], h, w)
