"""Two-stage training, the inference pipeline and strategy comparisons.

Stage 1 distills the encoder + adapter against the synthetic geometry and
semantics teachers. Stage 2 fine-tunes everything on the joint loss:
reconstruction targets are divided by the scene's mean ground-truth depth
so the relative heads stay scale-free, while the metric-bin head is
supervised in absolute meters; weighted-least-squares scale alignment ties
the two back together at inference.

Training strategies:
  two_stage_dual            stage 1 with both teachers, then stage 2
  two_stage_single_teacher  stage 1 with the geometry teacher only
  no_sc_loss                stage 1 with lambda_sc = 0
  single_stage              joint loss from scratch for the combined budget

All logged JSON is deterministic for a fixed config + seed; wall-clock
timings go to stderr only.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import RunConfig, write_json
from .errors import DegenerateInputError, NumericError
from .evalmetrics import MetricsReport, depth_metrics, pointcloud_metrics, pose_metrics
from .geometry import METRIC, RELATIVE, CameraModel, DepthMap
from .losses import (
    LAMBDA_SC, LossReport, distill_loss, metric_depth_loss, recon_task_loss, vl_proxy_loss,
)
from .model import VidModelParams, WindowPrediction, adapt, init_model, predict_window
from .numkit import AdamW, Tensor, TokenSet, no_grad
from .patch3d import Patch3DTokens, PointCloud, backproject_grid, fuse_tokens
from .scale_align import ScaleEstimate, apply_scale, scene_scale
from .synthscene import FrameData, SceneSample, TokenizerConfig, gen_scene

HELD_OUT_OFFSET = 900_000


@dataclass
class TrainLogEntry:
    step: int
    stage: int
    report: LossReport

    def to_json(self) -> dict:
        return {"step": self.step, "stage": self.stage,
                "losses": self.report.to_json()}


def write_jsonl(path: str | Path, entries: list[TrainLogEntry]) -> None:
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps(e.to_json(), sort_keys=True))
            fh.write("\n")


# ----------------------------------------------------------------------
# scene supply
# ----------------------------------------------------------------------

def scene_seeds(cfg: RunConfig, count: int | None = None, held_out: bool = False) -> list[int]:
    n = cfg.n_scenes if count is None else count
    base = cfg.seed * 100_000 + (HELD_OUT_OFFSET if held_out else 0)
    return [base + i for i in range(n)]


def generate_scenes(cfg: RunConfig, count: int | None = None,
                    held_out: bool = False) -> list[SceneSample]:
    return list(_iter_scenes(cfg, count, held_out))


def _iter_scenes(cfg: RunConfig, count: int | None = None,
                 held_out: bool = False) -> Iterator[SceneSample]:
    """The scenes of `generate_scenes` one at a time, in seed order."""
    tok = TokenizerConfig(dim=cfg.dim, noise=cfg.token_noise,
                          seed=cfg.seed, patch_size=cfg.patch_size)
    for s in scene_seeds(cfg, count, held_out):
        yield gen_scene(s, n_frames=cfg.frames_per_scene,
                        resolution=cfg.resolution, n_objects=cfg.n_objects,
                        tokenizer=tok)


# ----------------------------------------------------------------------
# stage 1: dual-teacher distillation
# ----------------------------------------------------------------------

AUGMENT_JITTER = 0.05   # per-step token jitter sigma, training only


def _jitter(frame: FrameData, rng: np.random.Generator) -> FrameData:
    """Seeded token-level jitter (the stand-in for image augmentations)."""
    noisy = frame.base.tokens.data + AUGMENT_JITTER * rng.standard_normal(
        frame.base.tokens.shape)
    return replace(frame, base=frame.base.with_tokens(Tensor(noisy)))


def _lr_at(cfg: RunConfig, step: int, total: int) -> float:
    """Linear warmup, then cosine decay to 10% over the run."""
    warm = min(1.0, step / max(cfg.warmup_steps, 1))
    progress = min(1.0, step / max(total, 1))
    decay = 0.1 + 0.9 * 0.5 * (1.0 + np.cos(np.pi * progress))
    return cfg.lr * warm * decay


def _batch_sum(x: Tensor) -> Tensor:
    """Sum over the leading batch axis from item 0 up, as one node. numpy's
    `sum` adds eight or more items pairwise, in another order."""
    return Tensor._from_op(np.cumsum(x.data, axis=0)[-1], "batch_sum", (x,), (
        lambda g: np.broadcast_to(g, x.data.shape).copy(),
    ))


def _stage1_flags(strategy: str) -> tuple[bool, bool, bool]:
    """(use_geo, use_lang, use_sc) for the distillation variants."""
    if strategy == "two_stage_single_teacher":
        return True, False, True
    if strategy == "no_sc_loss":
        return True, True, False
    return True, True, True


def train_stage1(cfg: RunConfig, scenes: list[SceneSample],
                 params: VidModelParams | None = None,
                 dump_path: str | Path | None = None
                 ) -> tuple[VidModelParams, list[TrainLogEntry]]:
    """Distill the encoder + adapter; other modules stay untouched.

    Each step draws its batch (scene, frame, jitter per sample), then runs
    the adapter and the loss once over the stacked [B, N, C] tokens.
    """
    params = params or init_model(cfg)
    rng = np.random.default_rng([cfg.seed, 201])
    use_geo, use_lang, use_sc = _stage1_flags(cfg.strategy)
    lam = LAMBDA_SC if use_sc else 0.0

    def step_loss() -> tuple[Tensor, LossReport]:
        batch = []
        for _ in range(cfg.stage1_batch):
            scene = scenes[int(rng.integers(len(scenes)))]
            batch.append(_jitter(scene.frames[int(rng.integers(len(scene.frames)))], rng))
        out = adapt(TokenSet.stack([f.base for f in batch]), params)
        res = distill_loss(out.geom, out.lang,
                           TokenSet.stack([f.teacher_geom for f in batch]),
                           TokenSet.stack([f.teacher_lang for f in batch]),
                           lam=lam, use_geo=use_geo, use_lang=use_lang)
        inv = 1.0 / cfg.stage1_batch
        geo, lang, sc = (_batch_sum(t) * inv for t in (res.geo, res.lang, res.sc))
        total = (geo + lang) + lam * sc
        return total, LossReport(geo_feat=geo.item(), lang_feat=lang.item(),
                                 sc=sc.item(), distill_total=total.item(), lam=lam)

    return params, _optimize(cfg, params.stage1_tensors(), None, 1, cfg.stage1_steps,
                             step_loss, dump_path)


def _optimize(cfg: RunConfig, trainable: dict[str, Tensor],
              lr_scale: dict[str, float] | None, stage: int, steps: int,
              step_loss, dump_path: str | Path | None) -> list[TrainLogEntry]:
    """AdamW steps on the loss `step_loss()` returns with its report, logged
    per step. A numeric or degenerate-input failure writes the abort dump
    (the last five log entries), then propagates."""
    opt = AdamW(trainable, lr=cfg.lr, lr_scale=lr_scale)
    log: list[TrainLogEntry] = []
    t_start = time.monotonic()
    for step in range(1, steps + 1):
        opt.lr = _lr_at(cfg, step, steps)
        try:
            total, report = step_loss()
            opt.zero_grad()
            total.backward()
            del total   # frees this step's graph before the next step's forward
            opt.step()
        except (NumericError, DegenerateInputError) as exc:
            if dump_path is not None:
                write_json(dump_path, {"stage": stage, "step": step, "error": str(exc),
                                       "last_entries": [e.to_json() for e in log[-5:]]})
            raise
        log.append(TrainLogEntry(step=step, stage=stage, report=report))
    dt = time.monotonic() - t_start
    print(f"[geovid] stage{stage}: {steps} steps in {dt * 1000.0:.0f} ms", file=sys.stderr)
    return log


# ----------------------------------------------------------------------
# stage 2: joint optimization
# ----------------------------------------------------------------------

def scene_norm(scene: SceneSample) -> float:
    """Deterministic per-scene depth normalizer for the relative targets."""
    return float(np.mean([f.depth.values.mean() for f in scene.frames]))


def _aligned_depth_for_vl(pred: WindowPrediction, cfg: RunConfig, clamp: bool = False
                          ) -> tuple[list[DepthMap], list[CameraModel], ScaleEstimate | None]:
    """Detached metric depths and metric cameras anchoring the 3D tokens, one
    per frame, plus the scene scale estimate (None unless md_mode is full).

    full: WLS + median alignment of the window predictions.
    no_alignment: the metric-bin depth directly, cameras left as predicted.
    off: the relative depth reinterpreted as metric (the scale-ambiguous
         ablation; geometry is wrong by an unknown factor, by design).

    `clamp` bounds the factor to [1e-2, 1e2]; training uses it so a bad
    early estimate cannot inject absurd anchor coordinates. Inference never
    clamps.
    """
    h, w = cfg.resolution
    cams = pred.cameras.to_cameras(RELATIVE)
    rel = pred.depth_rel.data
    if cfg.md_mode != "full":
        values = rel if cfg.md_mode == "off" else pred.depth_metric.data.reshape(-1, h, w)
        return [DepthMap(v.copy(), scale_kind=METRIC) for v in values], cams, None
    pairs = [(DepthMap(r.copy(), scale_kind=RELATIVE),
              DepthMap(m.reshape(h, w).copy(), scale_kind=METRIC))
             for r, m in zip(rel, pred.depth_metric.data)]
    est = scene_scale(pairs, seed=cfg.seed)
    factor = float(np.clip(est.scene_factor, 1e-2, 1e2)) if clamp else est.scene_factor
    aligned = [apply_scale(factor, r, c) for (r, _), c in zip(pairs, cams)]
    return [d for d, _ in aligned], [c for _, c in aligned], est


def _window_joint_loss(pred: WindowPrediction, params: VidModelParams,
                       cfg: RunConfig, norm: float
                       ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(joint, recon, vl, md) scalar tensors averaged over the window.

    Each term runs once over the window's frames and gives one value per
    frame, summed from frame 0 up. `norm` is the scene-level depth
    normalizer: relative-branch targets are deterministic per frame, and the
    inference-time WLS factor absorbs it.
    """
    frames = pred.frames
    depths, cams, _ = _aligned_depth_for_vl(pred, cfg, clamp=True)
    gt_cams = [replace(f.camera, translation=f.camera.translation / norm, scale_kind=RELATIVE)
               for f in frames]
    gt_depths = [DepthMap(f.depth.values / norm, scale_kind=RELATIVE,
                          valid_mask=f.depth.valid_mask) for f in frames]
    recon = recon_task_loss(pred.cameras, gt_cams, pred.depth_rel, gt_depths).total
    t3d = fuse_tokens(pred.lang, depths, cams, params.pos_embed, patch_size=cfg.patch_size)
    vl = vl_proxy_loss(t3d, np.stack([f.patch_labels for f in frames]), params.vl_head)
    md = (Tensor(np.zeros(len(frames))) if cfg.md_mode == "off"
          else metric_depth_loss(pred.depth_metric, [f.depth for f in frames]))
    inv = 1.0 / len(frames)
    recon, vl, md = (_batch_sum(t) * inv for t in (recon, vl, md))
    joint = (recon + vl) + md
    return joint, recon, vl, md


ENCODER_LR_SCALE = 0.1   # stage-2 fine-tuning rate for the encoder
POSE_LR_SCALE = 3.0      # stage-2 boost for the camera head


def train_stage2(cfg: RunConfig, params: VidModelParams,
                 scenes: list[SceneSample],
                 steps: int | None = None,
                 dump_path: str | Path | None = None
                 ) -> tuple[VidModelParams, list[TrainLogEntry]]:
    """Fine-tune all modules on the joint loss (encoder at a reduced rate)."""
    trainable = params.named_tensors()
    lr_scale = {}
    for name in trainable:
        if name.startswith("encoder."):
            lr_scale[name] = ENCODER_LR_SCALE
        elif name.startswith("cta."):
            # the distilled adapter is fine-tuned gently so stage 2 cannot
            # unlearn the stage-1 alignment (single_stage uses full rate)
            lr_scale[name] = cfg.adapter_lr_scale
        elif name.startswith("camera_head."):
            lr_scale[name] = POSE_LR_SCALE
    if cfg.strategy == "single_stage":
        lr_scale = {k: v for k, v in lr_scale.items()
                    if not k.startswith("cta.")}
    rng = np.random.default_rng([cfg.seed, 202])

    def step_loss() -> tuple[Tensor, LossReport]:
        scene = scenes[int(rng.integers(len(scenes)))]
        k = min(cfg.stage2_frames, len(scene.frames))
        idx = rng.choice(len(scene.frames), size=k, replace=False)
        window = [_jitter(scene.frames[int(i)], rng) for i in sorted(idx)]
        pred = predict_window(window, params, cfg)
        joint, recon, vl, md = _window_joint_loss(pred, params, cfg, scene_norm(scene))
        return joint, LossReport(recon_task=recon.item(), vl_task=vl.item(),
                                 md=md.item(), joint_total=joint.item())

    return params, _optimize(cfg, trainable, lr_scale, 2,
                             cfg.stage2_steps if steps is None else steps,
                             step_loss, dump_path)


def train(cfg: RunConfig, scenes: list[SceneSample],
          dump_path: str | Path | None = None
          ) -> tuple[VidModelParams, list[TrainLogEntry]]:
    """Full strategy-aware run.

    single_stage runs the joint stage from random initialization on the
    stage-2 schedule; the two-stage strategies distill first and then run
    the same joint schedule.
    """
    if cfg.strategy == "single_stage":
        params = init_model(cfg)
        return train_stage2(cfg, params, scenes, dump_path=dump_path)
    params, log1 = train_stage1(cfg, scenes, dump_path=dump_path)
    params, log2 = train_stage2(cfg, params, scenes, dump_path=dump_path)
    return params, log1 + log2


# ----------------------------------------------------------------------
# inference pipeline
# ----------------------------------------------------------------------

@dataclass
class PipelineResult:
    depths: list[DepthMap]            # final per-frame depth (scaled when aligned)
    cameras: list[CameraModel]
    cloud: PointCloud
    t3d: Patch3DTokens                # [F, N, C] tokens of the whole scene
    metrics: MetricsReport
    scale: ScaleEstimate | None


def strided_cloud(depths: list[DepthMap], cameras: list[CameraModel]) -> PointCloud:
    """Every 2nd pixel row and column of each frame, back-projected into one cloud."""
    mask = np.zeros(depths[0].shape, dtype=bool)
    mask[::2, ::2] = True
    return PointCloud(np.concatenate([backproject_grid(d, c, mask=mask)
                                      for d, c in zip(depths, cameras)], axis=0))


def score_frames(cameras: list[CameraModel], gt_cameras: list[CameraModel],
                 depths: list[DepthMap], gt_depths: list[DepthMap],
                 cloud: PointCloud | None, gt_cloud: PointCloud | None,
                 tau: float) -> MetricsReport:
    """Pose metrics over two or more cameras, per-frame depth metrics averaged
    into one dict, and point-cloud metrics. A part with too few cameras, no
    depths or no cloud stays unset."""
    report = MetricsReport()
    if len(cameras) >= 2:
        report.pose = pose_metrics(cameras, gt_cameras)
    if depths:
        per_frame = [depth_metrics(d, g) for d, g in zip(depths, gt_depths)]
        report.depth = {k: float(np.mean([m[k] for m in per_frame]))
                        for k in per_frame[0]}
    if cloud is not None and gt_cloud is not None:
        report.recon = pointcloud_metrics(cloud, gt_cloud, tau=tau)
    return report


def run_pipeline(cfg: RunConfig, scene: SceneSample,
                 params: VidModelParams) -> PipelineResult:
    """tokens -> adapter -> backbone -> heads -> bins -> alignment -> fusion -> metrics.

    One forward runs over the whole scene (the backbone's global blocks
    attend within windows of the training size); the scene-level scale is
    recovered once from all frames' depth pairs.
    """
    with no_grad():
        pred = predict_window(scene.frames, params, cfg)
        depths, cameras, scale = _aligned_depth_for_vl(pred, cfg)
        t3d = fuse_tokens(pred.lang, depths, cameras, params.pos_embed,
                          patch_size=cfg.patch_size)

    gt_cams = [f.camera for f in scene.frames]
    cloud = strided_cloud(depths, cameras)
    gt_cloud = strided_cloud([f.depth for f in scene.frames], gt_cams)

    scored = cfg.md_mode != "off"
    metrics = score_frames(cameras, gt_cams,
                           depths if scored else [], [f.depth for f in scene.frames],
                           cloud if scored else None, gt_cloud, tau=cfg.tau_f)
    return PipelineResult(depths=depths, cameras=cameras, cloud=cloud,
                          t3d=t3d, metrics=metrics, scale=scale)


# ----------------------------------------------------------------------
# held-out evaluation and the strategy comparison
# ----------------------------------------------------------------------

def evaluate_test_loss(cfg: RunConfig, params: VidModelParams,
                       scenes: list[SceneSample]) -> dict:
    """Mean joint loss over fixed windows of held-out scenes (no gradients)."""
    totals = {"joint": 0.0, "recon": 0.0, "vl": 0.0, "md": 0.0}
    with no_grad():
        for scene in scenes:
            k = min(cfg.stage2_frames, len(scene.frames))
            pred = predict_window(scene.frames[:k], params, cfg)
            joint, recon, vl, md = _window_joint_loss(pred, params, cfg, scene_norm(scene))
            for key, value in zip(totals, (joint, recon, vl, md)):
                totals[key] += value.item()
    n = max(len(scenes), 1)
    return {k: v / n for k, v in totals.items()}


def compare_strategies(cfg_base: RunConfig, strategies: list[str],
                       data_sizes: list[int], seeds: list[int],
                       out_csv: str | Path | None = None) -> list[dict]:
    """Final held-out joint loss per (strategy, data size, seed); CSV rows.

    Strategies at the same (seed, size) share the training scenes; data
    sizes are nested prefixes of one scene list per seed.
    """
    if len(strategies) < 1 or len(data_sizes) < 1:
        raise DegenerateInputError("need at least one strategy and one size")
    rows = []
    for seed in seeds:
        cfg_seed = replace(cfg_base, seed=seed)
        all_scenes = generate_scenes(cfg_seed, count=max(data_sizes))
        held_out = generate_scenes(cfg_seed, count=4, held_out=True)
        for size in data_sizes:
            scenes = all_scenes[:size]
            for strategy in strategies:
                cfg = replace(cfg_seed, strategy=strategy, n_scenes=size)
                params, _ = train(cfg, scenes)
                result = evaluate_test_loss(cfg, params, held_out)
                rows.append({"strategy": strategy, "data_size": size,
                             "seed": seed,
                             "test_loss": result["joint"],
                             "recon": result["recon"],
                             "vl": result["vl"],
                             "md": result["md"]})
    if out_csv is not None:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["strategy", "data_size",
                                                    "seed", "test_loss",
                                                    "recon", "vl", "md"])
            writer.writeheader()
            writer.writerows(rows)
    return rows
