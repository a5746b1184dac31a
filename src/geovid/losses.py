"""Training objectives.

Stage 1 distills the adapter streams against geometry and semantics
teachers: per-token squared L2 between unit-normalized tokens, mean
(1 - cosine), and a Gram-matrix structural-consistency term over the
concatenated normalized streams. Stage 2 is a joint loss of simplified
reconstruction terms (geodesic pose angle^2 + translation L2, masked L1
depth, L1 between back-projected point maps), a cross-entropy proxy for
the language branch, and the robust log-depth metric term
b^2 + mean((e - b)^2 / (1 + alpha |e - b|)).

Every loss returns a Tensor so gradients flow: a scalar for one token set,
one value per item of a [B, N, C] batch, and the stage-2 terms one value per
frame of a window. The frames of a window share one valid mask. totals are
composed as (a + b) + c so logged components re-add bit-exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, ParameterError, ShapeError
from .geometry import CameraModel, DepthMap
from .numkit import (
    MlpParams, Tensor, TokenSet, arccos, as_tensor, concat, exp, log, matmul,
    mlp, tabs, tmean, tsum,
)
from .patch3d import Patch3DTokens, backproject_grid
from .recon import CameraPrediction

_NORM_GUARD = 1e-12
LAMBDA_SC = 0.5     # weight of the structural-consistency term
ALPHA_MD = 1.0      # robustness of the metric depth loss


def _tokens(x) -> Tensor:
    t = x.tokens if isinstance(x, TokenSet) else as_tensor(x)
    if t.ndim not in (2, 3):
        raise ShapeError("token losses need [N, C] or [B, N, C] inputs")
    return t


def _pair(student, teacher) -> tuple[Tensor, Tensor]:
    s, t = _tokens(student), _tokens(teacher)
    if s.shape != t.shape:
        raise ShapeError(f"student/teacher shapes differ: {s.shape} vs {t.shape}")
    return s, t


def _unit_rows(t: Tensor, what: str) -> Tensor:
    norms = np.sqrt((t.data * t.data).sum(axis=-1))
    if norms.min() <= _NORM_GUARD:
        raise DegenerateInputError(f"zero-norm token in {what}")
    sq = tsum(t * t, axis=-1, keepdims=True)
    return t * (sq ** -0.5)


def _valid_pixels(pred: Tensor, gts: list[DepthMap],
                  loss: str) -> tuple[Tensor, Tensor, np.ndarray]:
    """A window's (pred, gt) at the valid pixels its depth maps share, each
    [F, M] in row-major order, and that [H, W] mask."""
    mask = gts[0].valid_mask
    if pred.ndim < 2 or pred.shape[0] != len(gts) or pred.size != len(gts) * mask.size:
        raise ShapeError("pred/gt depth shapes differ")
    if any(not np.array_equal(g.valid_mask, mask) for g in gts):
        raise ShapeError("the depth maps of a window must share one valid mask")
    if not mask.any():
        raise DegenerateInputError(f"no valid pixels for the {loss}")
    idx = np.flatnonzero(mask)
    gt = np.stack([g.values.reshape(-1)[idx] for g in gts])
    return pred.reshape(len(gts), mask.size)[:, idx], Tensor(gt), mask


def geo_feat_loss(student, teacher) -> Tensor:
    """Mean squared L2 distance between unit-normalized token rows; range [0, 4].
    A [B, N, C] batch gives one mean per item, [B]."""
    s, t = _pair(student, teacher)
    d = _unit_rows(s, "student") - _unit_rows(t, "teacher")
    return tmean(tsum(d * d, axis=-1), axis=-1)


def lang_feat_loss(student, teacher) -> Tensor:
    """Mean per-token (1 - cosine similarity); range [0, 2], per item of a batch."""
    s, t = _pair(student, teacher)
    cos = tsum(_unit_rows(s, "student") * _unit_rows(t, "teacher"), axis=-1)
    return tmean(1.0 - cos, axis=-1)


def _gram_gap(zs: Tensor, zt: Tensor) -> Tensor:
    """||Z_stu Z_stu^T - Z_tea Z_tea^T||_F^2 / M^2 for unit-row token matrices
    (per item of a batch)."""
    if zs.shape[-2] != zt.shape[-2]:
        raise ShapeError("student/teacher token totals differ")
    m = zs.shape[-2]
    diff = matmul(zs, zs.mT) - matmul(zt, zt.mT)
    return tsum(diff * diff, axis=(-2, -1)) * (1.0 / (m * m))


def structural_consistency(stu_geom, stu_lang, tea_geom, tea_lang) -> Tensor:
    """Gram-matrix gap over the concatenated normalized geometry + language tokens."""
    zs = concat([_unit_rows(_tokens(stu_geom), "student geom"),
                 _unit_rows(_tokens(stu_lang), "student lang")], axis=-2)
    zt = concat([_unit_rows(_tokens(tea_geom), "teacher geom"),
                 _unit_rows(_tokens(tea_lang), "teacher lang")], axis=-2)
    return _gram_gap(zs, zt)


@dataclass
class DistillResult:
    geo: Tensor
    lang: Tensor
    sc: Tensor
    total: Tensor


def distill_loss(stu_geom, stu_lang, tea_geom, tea_lang, lam: float = LAMBDA_SC,
                 use_geo: bool = True, use_lang: bool = True) -> DistillResult:
    """geo + lang + lam * sc; the single-teacher variant drops one feature term
    and builds the Gram matrices from the remaining stream only. [B, N, C]
    streams give every term per item, [B]; a dropped term is zeros."""
    if lam < 0:
        raise ParameterError("lambda must be nonnegative")
    if not (use_geo or use_lang):
        raise ParameterError("at least one teacher must be active")
    zero = Tensor(np.zeros(_tokens(stu_geom).shape[:-2]))
    geo = geo_feat_loss(stu_geom, tea_geom) if use_geo else zero
    lang = lang_feat_loss(stu_lang, tea_lang) if use_lang else zero
    if use_geo and use_lang:
        sc = structural_consistency(stu_geom, stu_lang, tea_geom, tea_lang)
    else:
        stu = stu_geom if use_geo else stu_lang
        tea = tea_geom if use_geo else tea_lang
        sc = _gram_gap(_unit_rows(_tokens(stu), "student"),
                       _unit_rows(_tokens(tea), "teacher"))
    total = (geo + lang) + lam * sc
    return DistillResult(geo=geo, lang=lang, sc=sc, total=total)


def metric_depth_loss(pred, gts: list[DepthMap], alpha: float = ALPHA_MD,
                      eps: float = 1e-6) -> Tensor:
    """b^2 + mean((e - b)^2 / (1 + alpha |e - b|)) over the valid pixels, per
    frame of a window [F, H, W] or [F, HW]: e = log(pred + eps) - log(gt + eps),
    b = mean(e). Returns [F]."""
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    p, g, _ = _valid_pixels(as_tensor(pred), gts, "metric depth loss")
    e = log(p + eps) - log(g + eps)
    b = tmean(e, axis=-1, keepdims=True)
    r = e - b
    local = tmean(r * r / (1.0 + alpha * tabs(r)), axis=-1)
    return (b * b).reshape(-1) + local


# ----------------------------------------------------------------------
# reconstruction task loss
# ----------------------------------------------------------------------

def backproject_grid_tensor(depth: Tensor, cam: CameraPrediction,
                            mask: np.ndarray) -> Tensor:
    """In-graph dense back-projection of a window's masked pixels -> [F, M, 3]
    world points through the window's cameras `cam`, one row per frame."""
    f, h, w = depth.shape
    jj, ii = np.nonzero(mask)
    d = depth.reshape(f, h * w)[:, jj * w + ii].reshape(f, -1, 1)
    px = Tensor(np.stack([ii - cam.cx, jj - cam.cy], axis=-1))  # [M, 2]
    # 1/fx and 1/fy are two nodes even where fy is fx, as in a frame's own graph
    inv_f = concat([(1.0 / cam.fx).reshape(f, 1), (1.0 / cam.fy).reshape(f, 1)], axis=1)
    xy = px * inv_f.reshape(f, 1, 2) * d
    cam_pts = concat([xy, d], axis=2)                           # [F, M, 3] camera frame
    return matmul(cam_pts - cam.translation.reshape(f, 1, 3), cam.rotation_tensor())


@dataclass
class ReconLossResult:
    pose: Tensor
    depth: Tensor
    pointmap: Tensor
    total: Tensor


def recon_task_loss(cam: CameraPrediction, gt_cams: list[CameraModel],
                    pred_depth: Tensor, gt_depths: list[DepthMap]) -> ReconLossResult:
    """pose angle^2 + ||t - t_gt||^2, masked L1 depth, L1 point map; unit
    weights. Each term is [F], one per frame of the window [F, H, W] and its
    cameras `cam`."""
    pred_vals = as_tensor(pred_depth)
    p, g, mask = _valid_pixels(pred_vals, gt_depths, "reconstruction loss")
    t_diff = cam.translation - Tensor(np.stack([c.translation for c in gt_cams]))
    # geodesic angle; the pose term and the point map each build their own rotation node
    rel = matmul(cam.rotation_tensor(),
                 Tensor(np.swapaxes(np.stack([c.rotation for c in gt_cams]), -1, -2)))
    angle = arccos((rel[:, 0, 0] + rel[:, 1, 1] + rel[:, 2, 2] - 1.0) * 0.5)
    pose = angle * angle + tsum(t_diff * t_diff, axis=-1)
    depth_l1 = tmean(tabs(p - g), axis=-1)

    pred_pts = backproject_grid_tensor(pred_vals, cam, mask)
    gt_pts = np.stack([backproject_grid(d, c) for d, c in zip(gt_depths, gt_cams)])
    pointmap = tmean(tabs(pred_pts - Tensor(gt_pts)), axis=(-2, -1))

    total = (pose + depth_l1) + pointmap
    return ReconLossResult(pose=pose, depth=depth_l1, pointmap=pointmap, total=total)


def vl_proxy_loss(t3d: Patch3DTokens, labels: np.ndarray, head: MlpParams) -> Tensor:
    """Mean cross-entropy of an MLP classifier over each frame's 3D patch
    tokens [F, N, C] with labels [F, N]; returns [F]."""
    n_classes = head.out_dim
    if n_classes < 1:
        raise ParameterError("classifier head has zero classes")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != t3d.tokens.shape[:-1]:
        raise ShapeError("label count differs from token count")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise DomainError(f"labels must lie in [0, {n_classes})")
    logits = mlp(t3d.tokens, head)
    shift = Tensor(logits.data.max(axis=-1, keepdims=True))  # detached, stabilizes exp
    z = logits - shift
    log_norm = log(tsum(exp(z), axis=-1, keepdims=True))
    picked = tsum((z - log_norm) * Tensor(np.eye(n_classes)[labels]), axis=-1)
    return -tmean(picked, axis=-1)


@dataclass
class LossReport:
    """Float snapshot of every component; totals re-add bit-exactly."""

    geo_feat: float = 0.0
    lang_feat: float = 0.0
    sc: float = 0.0
    distill_total: float = 0.0
    recon_task: float = 0.0
    vl_task: float = 0.0
    md: float = 0.0
    joint_total: float = 0.0
    lam: float = LAMBDA_SC
    alpha: float = ALPHA_MD

    def to_json(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        return out
