"""Command-line surface.

Exit codes: 0 success, 2 degenerate input, 3 numeric failure, 1 any other
package error. All artifacts (JSON, JSONL, PLY, checkpoints) are
byte-deterministic for a fixed config + seed; `GEOVID_THREADS` caps the
scene-generation worker pool.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from .config import RunConfig
from .errors import DegenerateInputError, GeovidError, NumericError, ParameterError
from .geometry import METRIC, RELATIVE, CameraModel, DepthMap
from .model import MODEL_FIELDS, init_model, load_checkpoint, save_checkpoint
from .numkit import vlt
from .patch3d import read_ply, write_ply
from .scale_align import apply_scale, scene_scale
from .synthscene import load_scene, save_scene
from .train import (
    _iter_scenes, compare_strategies, run_pipeline, score_frames, strided_cloud,
    train_stage1, train_stage2, write_jsonl,
)


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DegenerateInputError as exc:
            click.echo(f"degenerate input: {exc}", err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(3)
        except GeovidError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return wrapper


@click.group()
def main():
    """Toy video-to-3D pipeline: scenes, training, alignment, evaluation."""


@main.command("gen-scenes")
@click.option("--seed", type=int, required=True)
@click.option("--count", type=int, required=True)
@click.option("--frames", type=int, default=32, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--resolution", type=int, default=56, show_default=True)
@click.option("--objects", type=int, default=5, show_default=True)
@click.option("--dim", type=int, default=64, show_default=True)
@click.option("--noise", type=float, default=0.01, show_default=True)
@_exit_codes
def gen_scenes_cmd(seed, count, frames, out, resolution, objects, dim, noise):
    """Generate synthetic scenes into OUT/scene_XXXX directories."""
    cfg = RunConfig(seed=seed, dim=dim, resolution=(resolution, resolution),
                    frames_per_scene=frames, n_objects=objects, token_noise=noise)
    out = Path(out)
    for i, scene in enumerate(_iter_scenes(cfg, count=count)):
        save_scene(out / f"scene_{i:04d}", scene)
    click.echo(f"wrote {count} scene(s) to {out}")


def _load_scene_dir(path: Path):
    dirs = sorted(p for p in Path(path).iterdir() if (p / "scene.json").exists())
    if not dirs:
        raise ParameterError(f"no scenes found under {path}")
    return [load_scene(d) for d in dirs]


@main.command("train")
@click.option("--stage", type=click.Choice(["1", "2"]), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--scenes", "scenes_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--init", "init_ckpt", type=click.Path(exists=True), default=None,
              help="checkpoint to start from (stage-1 output for stage 2)")
@_exit_codes
def train_cmd(stage, config_path, scenes_path, out, init_ckpt):
    """Run one training stage and write checkpoint + JSONL log to OUT."""
    cfg = RunConfig.load(config_path)
    scenes = _load_scene_dir(Path(scenes_path))
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if init_ckpt is not None:
        params, ckpt_cfg = load_checkpoint(init_ckpt)
        for name in MODEL_FIELDS:
            if getattr(ckpt_cfg, name) != getattr(cfg, name):
                raise ParameterError(f"--init checkpoint has {name}={getattr(ckpt_cfg, name)}"
                                     f" but --config has {getattr(cfg, name)}")
    else:
        params = init_model(cfg)
    dump = out / "abort_dump.json"
    if stage == "1":
        params, log = train_stage1(cfg, scenes, params=params, dump_path=dump)
    else:
        params, log = train_stage2(cfg, params, scenes, dump_path=dump)
    save_checkpoint(out / "ckpt", params, cfg)
    write_jsonl(out / "log.jsonl", log)
    click.echo(f"stage {stage} done: final loss "
               f"{log[-1].report.distill_total if stage == '1' else log[-1].report.joint_total}")


def _load_depth_dir(path: Path, kind: str) -> list[tuple[str, DepthMap]]:
    path = Path(path)
    files = [path] if path.is_file() else sorted(path.glob("*.vlt"))
    if not files:
        raise ParameterError(f"no .vlt depth files under {path}")
    return [(f.stem, DepthMap(vlt.load_tensor(f), scale_kind=kind)) for f in files]


@main.command("align-scale")
@click.option("--depth-rel", type=click.Path(exists=True), required=True)
@click.option("--depth-metric", type=click.Path(exists=True), required=True)
@click.option("--cameras", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.option("--scaled-out", type=click.Path(), default=None,
              help="also write scaled depths/cameras here")
@click.option("--samples", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--uniform-weights", is_flag=True, default=False)
@_exit_codes
def align_scale_cmd(depth_rel, depth_metric, cameras, out, scaled_out,
                    samples, seed, uniform_weights):
    """Estimate the scene scale factor from relative/metric depth pairs."""
    rel = _load_depth_dir(Path(depth_rel), RELATIVE)
    met = _load_depth_dir(Path(depth_metric), METRIC)
    if len(rel) != len(met):
        raise ParameterError("relative/metric depth counts differ")
    pairs = [(r, m) for (_, r), (_, m) in zip(rel, met)]
    est = scene_scale(pairs, sample_count=samples, seed=seed,
                      weights="uniform" if uniform_weights else "inverse_metric")
    est.save(out)
    if scaled_out is not None:
        sdir = Path(scaled_out)
        sdir.mkdir(parents=True, exist_ok=True)
        cams = ([CameraModel.load(f) for f in sorted(Path(cameras).glob("*.json"))]
                if cameras is not None else [])
        for i, ((name, r), _) in enumerate(zip(rel, met)):
            if i < len(cams):
                d, c = apply_scale(est.scene_factor, r, cams[i])
                c.save(sdir / f"{name}.camera.json")
            else:
                d = DepthMap(r.values * est.scene_factor, scale_kind=METRIC,
                             valid_mask=r.valid_mask)
            vlt.save_tensor(sdir / f"{name}.vlt", d.values)
    click.echo(f"scene factor {est.scene_factor:.6g} from {len(est.per_image_factors)} frame(s)")


@main.command("infer")
@click.option("--ckpt", type=click.Path(exists=True), required=True)
@click.option("--scene", "scene_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@_exit_codes
def infer_cmd(ckpt, scene_path, out):
    """Run the trained pipeline on one scene; write PLY + JSON artifacts."""
    params, cfg = load_checkpoint(ckpt)
    scene = load_scene(scene_path)
    result = run_pipeline(cfg, scene, params)
    out = Path(out)
    (out / "cameras").mkdir(parents=True, exist_ok=True)
    (out / "depth").mkdir(exist_ok=True)
    write_ply(out / "cloud.ply", result.cloud)
    result.metrics.save(out / "metrics.json")
    if result.scale is not None:
        result.scale.save(out / "scale.json")
    for i, (cam, depth) in enumerate(zip(result.cameras, result.depths)):
        cam.save(out / "cameras" / f"frame_{i:03d}.json")
        vlt.save_tensor(out / "depth" / f"frame_{i:03d}.vlt", depth.values)
    anchors = {f"frame_{i:03d}": t.anchor_points.tolist()
               for i, t in enumerate(result.t3d)}
    with open(out / "t3d_anchors.json", "w") as fh:
        json.dump(anchors, fh, sort_keys=True)
        fh.write("\n")
    click.echo(f"inference artifacts written to {out}")


def _dir_artifacts(path: Path):
    """(cloud, cameras, depths) from an infer output or scene dir."""
    path = Path(path)
    if (path / "scene.json").exists():
        scene = load_scene(path)
        cams = [f.camera for f in scene.frames]
        depths = [f.depth for f in scene.frames]
        return strided_cloud(depths, cams), cams, depths
    cloud = read_ply(path / "cloud.ply") if (path / "cloud.ply").exists() else None
    cams = [CameraModel.load(f) for f in sorted((path / "cameras").glob("*.json"))]
    depths = [DepthMap(vlt.load_tensor(f), scale_kind=METRIC)
              for f in sorted((path / "depth").glob("*.vlt"))]
    return cloud, cams, depths


@main.command("eval")
@click.option("--pred", type=click.Path(exists=True), required=True)
@click.option("--gt", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--tau", type=float, default=0.05, show_default=True)
@_exit_codes
def eval_cmd(pred, gt, out, tau):
    """Compare prediction artifacts against ground truth; write a report."""
    p_cloud, p_cams, p_depths = _dir_artifacts(Path(pred))
    g_cloud, g_cams, g_depths = _dir_artifacts(Path(gt))
    report = score_frames(p_cams if len(p_cams) == len(g_cams) else [], g_cams,
                          p_depths if len(p_depths) == len(g_depths) else [], g_depths,
                          p_cloud, g_cloud, tau=tau)
    report.save(out)
    click.echo(f"report written to {out}")


@main.command("compare")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--strategies", type=str, required=True,
              help="comma-separated strategy names")
@click.option("--sizes", type=str, required=True,
              help="comma-separated scene counts")
@click.option("--seeds", type=str, default="7", show_default=True)
@click.option("--out", type=click.Path(), required=True)
@_exit_codes
def compare_cmd(config_path, strategies, sizes, seeds, out):
    """Train every (strategy, data size, seed) cell; write the loss CSV."""
    cfg = RunConfig.load(config_path)
    strat = [s.strip() for s in strategies.split(",") if s.strip()]
    size_list = [int(s) for s in sizes.split(",") if s.strip()]
    seed_list = [int(s) for s in seeds.split(",") if s.strip()]
    rows = compare_strategies(cfg, strat, size_list, seed_list, out_csv=out)
    click.echo(f"{len(rows)} row(s) written to {out}")


if __name__ == "__main__":
    main()
