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
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .config import RunConfig
from .cta import CtaOutput, CtaParams, cta_forward
from .errors import ParameterError, ShapeError
from .metric_depth import MetricDepthParams, init_bins, predict_metric_depth
from .numkit import MlpParams, Role, ShapeRng, Tensor, TokenSet, concat, mlp, vlt
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
                "n_bins", "d_min", "d_max")


def init_model(cfg: RunConfig) -> VidModelParams:
    return _build_model(cfg, np.random.default_rng([cfg.seed, 101]),
                        init_bins(cfg.n_bins, cfg.d_min, cfg.d_max))


def _build_model(cfg: RunConfig, rng, bins) -> VidModelParams:
    """The parameter tree of `cfg` drawn from `rng`; from a ShapeRng, each
    leaf holds only its shape, and `bins` need only carry `n_bins`."""
    c = cfg.dim
    return VidModelParams(
        encoder=MlpParams.init(rng, c, zero_out=True),
        cta=CtaParams.init(rng, c, cfg.heads, bridge_tokens=cfg.bridge_tokens),
        backbone=BackboneParams.init(rng, c, cfg.heads, blocks=cfg.blocks),
        camera_head=CameraHeadParams.init(rng, c),
        # DPT-style two-level fusion: backbone output plus the adapter stream
        depth_head=DepthHeadParams.init(rng, 2 * c, patch_size=cfg.patch_size),
        metric=MetricDepthParams.init(rng, c, bins, patch_size=cfg.patch_size),
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
class WindowPrediction:
    """Everything the heads produce for F frames, gradients attached."""

    frames: list[FrameData]
    lang: TokenSet                   # [F, N, C] adapter language stream
    cameras: CameraPrediction        # [F] rows, relative scale
    depth_rel: Tensor                # [F, H, W] relative depth, in-graph
    depth_metric: Tensor | None      # [M, HW] metric depth, in-graph; None when md_mode is off
    metric_frames: list[int] | None = None   # the frames of depth_metric's rows; None: all F


def predict_window(frames: list[FrameData], params: VidModelParams,
                   cfg: RunConfig, metric_frames: list[int] | None = None) -> WindowPrediction:
    """Joint forward over any number of frames. The backbone's global blocks
    attend within windows of `cfg.stage2_frames` frames, the training size;
    every other layer runs once over all frames, except the metric-bin head,
    which runs on the frames `metric_frames` (None: all of them). It works
    frame by frame, so a frame's row has the same bits either way."""
    if not frames:
        raise ShapeError("empty frame window")
    adapted = adapt(TokenSet.stack([f.base for f in frames]), params)
    geom, k = adapted.geom, cfg.stage2_frames
    if len(frames) <= k:   # one window: no slice or concat node
        patch, cams = gfa_backbone(geom, params.backbone)
    else:
        wins = [gfa_backbone(geom.with_tokens(geom.tokens[lo:lo + k]), params.backbone)
                for lo in range(0, len(frames), k)]
        patch, cams = (w[0].with_tokens(concat([t.tokens for t in w])) for w in zip(*wins))
    depth_in = patch.with_tokens(concat([patch.tokens, geom.tokens], axis=2))
    metric_in = geom if metric_frames is None else geom.with_tokens(geom.tokens[metric_frames])
    return WindowPrediction(
        frames=list(frames), lang=adapted.lang,
        depth_rel=depth_head_tensor(depth_in, cfg.resolution, params.depth_head),
        depth_metric=(None if cfg.md_mode == "off"
                      else predict_metric_depth(metric_in, cfg.resolution, params.metric)),
        metric_frames=metric_frames,
        cameras=camera_head(cams, params.camera_head, cfg.resolution))


def save_checkpoint(directory, params: VidModelParams, cfg: RunConfig) -> None:
    arrays = {name: t.data for name, t in params.named_tensors().items()}
    vlt.save_container(directory, arrays, meta={"config": cfg.to_json()})


def load_checkpoint(directory, cfg: RunConfig | None = None
                    ) -> tuple[VidModelParams, RunConfig]:
    """Weights and config of `save_checkpoint`. The tensors are the stored
    arrays, checked against the names and shapes `init_model` gives the
    stored config, with nothing drawn. A mismatch is a ParameterError, as is
    a MODEL_FIELDS value that differs from `cfg`'s when `cfg` is given (the
    config `train --init` trains the checkpoint on)."""
    arrays, meta = vlt.load_container(directory)
    ckpt_cfg = RunConfig.from_json(meta.get("config"))
    for name in MODEL_FIELDS if cfg is not None else ():
        if getattr(ckpt_cfg, name) != getattr(cfg, name):
            raise ParameterError(f"--init checkpoint has {name}={getattr(ckpt_cfg, name)}"
                                 f" but --config has {getattr(cfg, name)}")
    manifest = Path(directory) / "manifest.json"
    # the bin centers are built only once the shapes fit: a claimed n_bins
    # allocates nothing before the weights refute it
    params = _build_model(ckpt_cfg, ShapeRng(), SimpleNamespace(n_bins=ckpt_cfg.n_bins))
    named = params.named_tensors()
    if set(named) != set(arrays):
        raise ParameterError(f"{manifest} config does not match its weights: the model"
                             " it describes has other tensor names")
    for name, tensor in named.items():
        if tensor.shape != arrays[name].shape:
            raise ParameterError(f"{manifest} config does not match its weights: '{name}'"
                                 f" is {arrays[name].shape}, the config gives {tensor.shape}")
        tensor.data = arrays[name].astype(np.float64, copy=False)   # VLT1 may hold f32
    params.metric.bins = init_bins(ckpt_cfg.n_bins, ckpt_cfg.d_min, ckpt_cfg.d_max)
    return params, ckpt_cfg
