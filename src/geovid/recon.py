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
from .geometry import RELATIVE, CameraModel, bilinear_sample, quaternion_to_rotation
from .geometry import _ROTATION_PRODUCTS
from .numkit import (
    MhaParams, MlpParams, Role, Tensor, TokenSet,
    broadcast_to, concat, maximum, mha, mlp, param, require_role, rms_norm, sigmoid,
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
            camera_init=param(rng.standard_normal((1, c)) / np.sqrt(c)),
            register_init=param(rng.standard_normal((4, c)) / np.sqrt(c)),
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
    """A window's differentiable cameras: unit quaternions, translations and
    intrinsics, one row per frame.

    The quaternions are normalized in-graph, so `rotation_tensor()` is always
    orthonormal. `to_cameras()` detaches them into plain CameraModels.
    """

    quat: Tensor          # [F, 4], unit norm
    translation: Tensor   # [F, 3]
    fx: Tensor            # [F]
    fy: Tensor            # [F]
    cx: float             # one image size per window
    cy: float

    def rotation_tensor(self) -> Tensor:
        return quat_to_rotation(self.quat)

    def to_cameras(self, scale_kind: str = RELATIVE) -> list[CameraModel]:
        return [CameraModel(fx=float(fx), fy=float(fy), cx=self.cx, cy=self.cy,
                            rotation=quaternion_to_rotation(q / np.linalg.norm(q)),
                            translation=t.copy(), scale_kind=scale_kind)
                for q, t, fx, fy in zip(self.quat.data, self.translation.data,
                                        self.fx.data, self.fy.data)]


# Each component's VJP terms sign * 2 g[entry] * q[partner], entry by entry and
# product by product: 6 for w, 10 each for x, y and z. Rows are padded to 10;
# `_LAST` is each row's last real term.
_TERMS = [[(k, sign, j) for k, products in enumerate(_ROTATION_PRODUCTS)
           for sign, a, b in products for i, j in ((a, b), (b, a)) if i == c]
          for c in range(4)]
_ENTRY, _SIGN, _PARTNER = (np.array([[t[n] for t in row] + [0] * (10 - len(row))
                                     for row in _TERMS]) for n in range(3))
_LAST = np.array([len(row) - 1 for row in _TERMS])


def quat_to_rotation(quat: Tensor) -> Tensor:
    """Unit quaternions [F, 4] as [w, x, y, z] -> rotations [F, 3, 3], as one
    graph node.

    The VJP adds each component's terms from the first with one cumsum, the
    order an op-per-scalar graph of the same formula uses, so the gradient is
    bit-identical to that graph's, quaternion by quaternion.
    """
    if quat.ndim != 2 or quat.shape[-1] != 4:
        raise ShapeError(f"quaternions must be [F, 4], got {quat.shape}")

    def vjp(g):
        terms = _SIGN * (g.reshape(-1, 9) * 2.0)[:, _ENTRY] * quat.data[:, _PARTNER]
        return np.cumsum(terms, axis=-1)[:, np.arange(4), _LAST]

    return Tensor._from_op(quaternion_to_rotation(quat.data), "quat_to_rotation", (quat,), (vjp,))


def camera_head(camera_tokens: TokenSet, p: CameraHeadParams,
                image_size: tuple[int, int]) -> CameraPrediction:
    """A window's camera tokens [F, n_cam, C], pooled per frame -> one
    relative-scale pose and field-of-view intrinsics per frame."""
    require_role(camera_tokens, Role.CAMERA)
    h, w = image_size
    # kept [F, 1, C], not [F, C]: each frame's row then has the bits of a one-frame call
    pooled = rms_norm(tmean(camera_tokens.tokens, axis=1, keepdims=True))
    raw = mlp(pooled, p.mlp).reshape(-1, 8)
    q_raw = raw[:, 0:4] + Tensor(np.array([1.0, 0.0, 0.0, 0.0]))
    q_norm = ((q_raw * q_raw).sum(axis=1, keepdims=True) + 1e-12) ** -0.5
    # sigmoid-bounded field of view; raw 0 lands mid-range
    fov = FOV_MIN + (FOV_MAX - FOV_MIN) * sigmoid(raw[:, 7])
    fx = (w / 2.0) / tan(fov * 0.5)
    return CameraPrediction(quat=q_raw * q_norm, translation=raw[:, 4:7],
                            fx=fx, fy=fx,  # square pixels
                            cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)


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

    Column c is `bilinear_sample` of cell c's indicator image at each output
    pixel i's half-pixel grid coordinate (i + 0.5) / patch - 0.5.
    """
    y = np.repeat((np.arange(h) + 0.5) / (h / gh) - 0.5, w)
    x = np.tile((np.arange(w) + 0.5) / (w / gw) - 0.5, h)
    cells = np.eye(gh * gw).reshape(-1, gh, gw)   # one indicator image per grid cell
    return np.stack([bilinear_sample(cell, x, y) for cell in cells], axis=1)


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
