"""Model assembly: every trainable module, forward composition, checkpoints.

The student encoder is a residual MLP over base tokens (the stand-in for
fine-tuning a pretrained visual backbone). The adapter splits the encoded
tokens into geometry and language streams; the geometry stream feeds the
global-frame attention backbone, camera head, relative-depth head and the
metric-bin head; the language stream feeds the 3D patch construction and
the classification proxy head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .cta import CtaOutput, CtaParams, cta_forward
from .errors import ParameterError, ShapeError
from .metric_depth import MetricDepthParams, init_bins, predict_metric_depth
from .numkit import MlpParams, Role, Tensor, TokenSet, concat, mlp, vlt
from .recon import (
    BackboneParams, CameraHeadParams, CameraPrediction, DepthHeadParams,
    camera_head, depth_head_tensor, gfa_backbone,
)
from .synthscene import NUM_CLASSES, FrameData


@dataclass
class VidModelParams:
    encoder: MlpParams          # residual MLP over base tokens
    cta: CtaParams
    backbone: BackboneParams
    camera_head: CameraHeadParams
    depth_head: DepthHeadParams
    metric: MetricDepthParams
    pos_embed: MlpParams        # 3 -> C positional embedding
    vl_head: MlpParams          # C -> NUM_CLASSES classifier

    def named_tensors(self) -> dict[str, Tensor]:
        out = self.stage1_tensors()
        for name in ("backbone", "camera_head", "depth_head", "metric", "pos_embed", "vl_head"):
            out.update(getattr(self, name).tensors(name))
        return out

    def stage1_tensors(self) -> dict[str, Tensor]:
        """Encoder + adapter only (the distillation stage trains these)."""
        out = self.encoder.tensors("encoder")
        out.update(self.cta.tensors("cta"))
        return out


# the RunConfig fields init_model builds the model from, besides its seed
MODEL_FIELDS = ("dim", "heads", "blocks", "bridge_tokens", "patch_size",
                "n_bins", "d_min", "d_max", "max_shift", "ordinal_bins")


def init_model(cfg: RunConfig) -> VidModelParams:
    rng = np.random.default_rng([cfg.seed, 101])
    c = cfg.dim
    bins = init_bins(cfg.n_bins, cfg.d_min, cfg.d_max, max_shift=cfg.max_shift)
    return VidModelParams(
        encoder=MlpParams.init(rng, c, zero_out=True),
        cta=CtaParams.init(rng, c, cfg.heads, bridge_tokens=cfg.bridge_tokens),
        backbone=BackboneParams.init(rng, c, cfg.heads, blocks=cfg.blocks),
        camera_head=CameraHeadParams.init(rng, c),
        # DPT-style two-level fusion: backbone output plus the adapter stream
        depth_head=DepthHeadParams.init(rng, 2 * c, patch_size=cfg.patch_size),
        metric=MetricDepthParams.init(rng, c, bins, ordinal=cfg.ordinal_bins,
                                      patch_size=cfg.patch_size),
        pos_embed=MlpParams.init(rng, 3, c, hidden=c),
        vl_head=MlpParams.init(rng, c, NUM_CLASSES, hidden=c),
    )


def encode(base: TokenSet, params: VidModelParams) -> TokenSet:
    """Residual student encoder; keeps the base role."""
    return TokenSet(base.tokens + mlp(base.tokens, params.encoder), Role.BASE)


def adapt(base: TokenSet, params: VidModelParams) -> CtaOutput:
    """Encoder followed by the cross-task adapter."""
    return cta_forward(encode(base, params), params.cta)


@dataclass
class FramePrediction:
    """Everything the heads produce for one frame, gradients attached."""

    frame: FrameData
    lang: TokenSet               # adapter language stream
    camera: CameraPrediction     # relative scale
    depth_rel: Tensor            # [H, W] relative depth, in-graph
    depth_metric: Tensor | None  # [HW] metric depth, in-graph; None when md_mode is off


def predict_window(frames: list[FrameData], params: VidModelParams,
                   cfg: RunConfig) -> list[FramePrediction]:
    """Joint forward over a window of frames (they share the global blocks)."""
    if not frames:
        raise ShapeError("empty frame window")
    adapted = adapt(TokenSet.stack([f.base for f in frames]), params)
    patch_tokens, cam_tokens = gfa_backbone(adapted.geom, params.backbone)

    d_met = (None if cfg.md_mode == "off"
             else predict_metric_depth(adapted.geom, cfg.resolution, params.metric))

    preds = []
    for i, (frame, pt, ct) in enumerate(zip(frames, patch_tokens, cam_tokens)):
        cam = camera_head(ct, params.camera_head, cfg.resolution)
        depth_in = pt.with_tokens(concat([pt.tokens, adapted.geom.tokens[i]], axis=1))
        d_rel = depth_head_tensor(depth_in, cfg.resolution, params.depth_head)
        preds.append(FramePrediction(frame=frame, lang=adapted.lang[i], camera=cam,
                                     depth_rel=d_rel,
                                     depth_metric=None if d_met is None else d_met[i]))
    return preds


def save_checkpoint(directory, params: VidModelParams, cfg: RunConfig) -> None:
    arrays = {name: t.data for name, t in params.named_tensors().items()}
    vlt.save_container(directory, arrays, meta={"config": cfg.to_json()})


def load_checkpoint(directory) -> tuple[VidModelParams, RunConfig]:
    """Weights and config of `save_checkpoint`; a mismatch is a ParameterError."""
    arrays, meta = vlt.load_container(directory)
    cfg = RunConfig.from_json(meta.get("config"))
    params = init_model(cfg)
    named = params.named_tensors()
    if set(named) != set(arrays):
        raise ParameterError(f"checkpoint {directory} tensor names do not match the model")
    for name, tensor in named.items():
        if tensor.data.shape != arrays[name].shape:
            raise ParameterError(f"checkpoint shape mismatch for '{name}'")
        tensor.data = arrays[name]
    return params, cfg
