import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "geovid.cli", *args],
                          capture_output=True, text=True, env=env)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}):\n{proc.stderr}")
    return proc


TINY_CFG = {
    "seed": 11, "dim": 16, "heads": 2, "blocks": 2, "bridge_tokens": 4,
    "resolution": [28, 28], "n_bins": 8, "n_scenes": 2, "frames_per_scene": 3,
    "stage1_steps": 4, "stage1_batch": 2, "stage2_steps": 4, "stage2_frames": 2,
    "warmup_steps": 2, "n_objects": 3,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CFG))
    run_cli("gen-scenes", "--config", str(cfg_path), "--out", str(root / "scenes"))
    return root, cfg_path


def test_gen_scenes_layout(workspace):
    root, _ = workspace
    scenes = sorted((root / "scenes").iterdir())
    assert [s.name for s in scenes] == ["scene_0000", "scene_0001"]
    for scene in scenes:
        assert sorted(p.name for p in scene.iterdir()) == ["scene.json", "scene.vlt"]


@pytest.mark.parametrize("count", [0, -2])
def test_gen_scenes_refuses_a_count_below_one(tmp_path, count):
    (tmp_path / "cfg.json").write_text(json.dumps({"n_scenes": count}))
    proc = run_cli("gen-scenes", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out"), check=False)
    assert proc.returncode == 1
    assert "n_scenes must be positive" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_gen_scenes_refuses_a_negative_seed(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
    proc = run_cli("gen-scenes", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "out"), check=False)
    assert proc.returncode == 1
    assert "seed must be nonnegative" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_gen_scenes_refuses_an_out_with_stale_scenes(tmp_path):
    # 3 scenes at seed 11, then 2 at seed 12 into the same OUT would leave
    # scene_0002 of the first run for `train` to mix with the second's
    def gen(seed, count):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"seed": seed, "dim": 16, "resolution": [28, 28], "n_scenes": count,
             "frames_per_scene": 1, "n_objects": 3}))
        return run_cli("gen-scenes", "--config", str(tmp_path / "cfg.json"),
                       "--out", str(tmp_path / "out"), check=False)

    def files():
        return {p: p.read_bytes() for p in sorted((tmp_path / "out").rglob("*")) if p.is_file()}

    assert gen(11, 3).returncode == 0
    before = files()
    proc = gen(12, 2)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert str(tmp_path / "out" / "scene_0002") in proc.stderr
    assert files() == before
    assert gen(11, 3).returncode == 0 and files() == before   # the same config again


@pytest.mark.parametrize("frames", [1, 2])
def test_gen_scenes_streamed_files_match_list_path(tmp_path, frames):
    # gen-scenes saves each scene of its config as it is generated; the files
    # must equal those of saving generate_scenes' list, for one- and two-frame
    # scenes
    from geovid.config import RunConfig
    from geovid.synthscene import save_scene
    from geovid.train import generate_scenes

    cfg = {"seed": 13, "dim": 16, "resolution": [28, 28], "n_scenes": 5,
           "frames_per_scene": frames, "n_objects": 3}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    run_cli("gen-scenes", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "cli"))
    for i, scene in enumerate(generate_scenes(RunConfig.from_json(cfg))):
        save_scene(tmp_path / "list" / f"scene_{i:04d}", scene)

    def files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    cli, listed = files(tmp_path / "cli"), files(tmp_path / "list")
    assert len(cli) > 5 and cli == listed


def test_train_infer_eval_chain(workspace):
    root, cfg_path = workspace
    run_cli("train", "--stage", "1", "--config", str(cfg_path),
            "--scenes", str(root / "scenes"), "--out", str(root / "s1"))
    assert (root / "s1" / "ckpt" / "weights.vlt").exists()
    assert (root / "s1" / "log.jsonl").exists()

    run_cli("train", "--stage", "2", "--config", str(cfg_path),
            "--scenes", str(root / "scenes"), "--out", str(root / "s2"),
            "--init", str(root / "s1" / "ckpt"))
    lines = (root / "s2" / "log.jsonl").read_text().splitlines()
    assert len(lines) == TINY_CFG["stage2_steps"]
    entry = json.loads(lines[-1])
    assert entry["stage"] == 2 and "joint_total" in entry["losses"]

    run_cli("infer", "--ckpt", str(root / "s2" / "ckpt"),
            "--scene", str(root / "scenes" / "scene_0000"),
            "--out", str(root / "pred"))
    assert (root / "pred" / "cloud.ply").exists()
    assert (root / "pred" / "metrics.json").exists()
    assert (root / "pred" / "scale.json").exists()
    assert (root / "pred" / "depth" / "frame_000.vlt").exists()

    run_cli("eval", "--pred", str(root / "pred"),
            "--gt", str(root / "scenes" / "scene_0000"),
            "--out", str(root / "report.json"))
    report = json.loads((root / "report.json").read_text())
    assert set(report) == {"pose", "depth", "recon"}
    assert report["recon"] is not None and "Fscore" in report["recon"]


@pytest.mark.parametrize("changes, named", [
    ({"dim": 32}, "dim=16 but --config has 32"),
    ({"d_min": 0.5, "d_max": 20.0}, "d_min=0.1 but --config has 0.5"),
])
def test_train_init_rejects_checkpoint_from_other_model(workspace, tmp_path, changes, named):
    from geovid.config import RunConfig
    from geovid.model import init_model, save_checkpoint
    _, cfg_path = workspace
    ckpt_cfg = RunConfig.load(cfg_path)
    save_checkpoint(tmp_path / "ckpt", init_model(ckpt_cfg), ckpt_cfg)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**TINY_CFG, **changes}))
    run_cli("gen-scenes", "--config", str(other), "--out", str(tmp_path / "scenes"))   # they fit
    proc = run_cli("train", "--stage", "2", "--config", str(other),
                   "--scenes", str(tmp_path / "scenes"), "--out", str(tmp_path / "out"),
                   "--init", str(tmp_path / "ckpt"), check=False)
    assert proc.returncode == 1
    assert named in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["stage-1", "stage-2", "infer"])
@pytest.mark.parametrize("changes, named", [
    ({"dim": 32}, "tokenizer.dim=16 but"),
    ({"resolution": [56, 56]}, "resolution=(28, 28) but"),
    ({"patch_size": 7}, "tokenizer.patch_size=14 but"),
], ids=["dim", "resolution", "patch-size"])
def test_scene_that_does_not_fit_the_config_exits_1(workspace, tmp_path, command, changes,
                                                    named):
    # every scene train reads must fit --config, and infer's scene the
    # checkpoint's config; the message names the scene and the field
    from geovid.config import RunConfig
    from geovid.model import init_model, save_checkpoint
    root, _ = workspace
    other = RunConfig.from_json({**TINY_CFG, **changes})
    if command == "infer":
        save_checkpoint(tmp_path / "ckpt", init_model(other), other)
        args = ("infer", "--ckpt", str(tmp_path / "ckpt"), "--scene",
                str(root / "scenes" / "scene_0000"))
    else:
        other.save(tmp_path / "other.json")
        args = ("train", "--stage", command[-1], "--config", str(tmp_path / "other.json"),
                "--scenes", str(root / "scenes"))
    proc = run_cli(*args, "--out", str(tmp_path / "out"), check=False)
    assert proc.returncode == 1, proc.stderr
    assert f"scene {root / 'scenes' / 'scene_0000'} has {named}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_align_scale_cli(workspace, tmp_path):
    root, _ = workspace
    rng = np.random.default_rng(0)
    from geovid.numkit import vlt
    rel_dir = tmp_path / "rel"
    met_dir = tmp_path / "met"
    rel_dir.mkdir()
    met_dir.mkdir()
    for i in range(3):
        metric = rng.uniform(1.0, 5.0, (8, 8))
        vlt.save_tensor(met_dir / f"f{i}.vlt", metric)
        vlt.save_tensor(rel_dir / f"f{i}.vlt", metric / 2.5)
    run_cli("align-scale", "--depth-rel", str(rel_dir),
            "--depth-metric", str(met_dir), "--out", str(tmp_path / "scale.json"))
    est = json.loads((tmp_path / "scale.json").read_text())
    assert est["scene_factor"] == pytest.approx(2.5, rel=1e-9)
    assert len(est["factors"]) == 3


def _align_inputs(root, n_depths, n_cameras):
    """Relative depths at 1/2.5 of metric ones, plus relative cameras."""
    from geovid.geometry import CameraModel
    from geovid.numkit import vlt
    rng = np.random.default_rng(3)
    dirs = {k: root / k for k in ("rel", "met", "cams")}
    for d in dirs.values():
        d.mkdir()
    for i in range(n_depths):
        metric = rng.uniform(1.0, 5.0, (8, 8))
        vlt.save_tensor(dirs["met"] / f"f{i}.vlt", metric)
        vlt.save_tensor(dirs["rel"] / f"f{i}.vlt", metric / 2.5)
    for i in range(n_cameras):
        CameraModel(fx=10.0, fy=10.0, cx=4.0, cy=4.0, rotation=np.eye(3),
                    translation=rng.standard_normal(3)).save(dirs["cams"] / f"c{i}.json")
    return dirs


def test_align_scale_scaled_out_with_cameras(tmp_path):
    from geovid.geometry import CameraModel
    from geovid.numkit import vlt
    dirs = _align_inputs(tmp_path, 3, 3)
    run_cli("align-scale", "--depth-rel", str(dirs["rel"]), "--depth-metric", str(dirs["met"]),
            "--cameras", str(dirs["cams"]), "--out", str(tmp_path / "scale.json"),
            "--scaled-out", str(tmp_path / "scaled"))
    factor = json.loads((tmp_path / "scale.json").read_text())["scene_factor"]
    for i in range(3):
        cam = CameraModel.load(dirs["cams"] / f"c{i}.json")
        scaled = CameraModel.load(tmp_path / "scaled" / f"f{i}.camera.json")
        assert scaled.scale_kind == "metric"
        np.testing.assert_array_equal(scaled.translation, cam.translation * factor)
        np.testing.assert_array_equal(vlt.load_tensor(tmp_path / "scaled" / f"f{i}.vlt"),
                                      vlt.load_tensor(dirs["rel"] / f"f{i}.vlt") * factor)


def test_align_scale_scaled_out_without_cameras(tmp_path):
    from geovid.numkit import vlt
    dirs = _align_inputs(tmp_path, 3, 0)
    run_cli("align-scale", "--depth-rel", str(dirs["rel"]), "--depth-metric", str(dirs["met"]),
            "--out", str(tmp_path / "scale.json"), "--scaled-out", str(tmp_path / "scaled"))
    factor = json.loads((tmp_path / "scale.json").read_text())["scene_factor"]
    assert sorted(p.name for p in (tmp_path / "scaled").iterdir()) == \
        ["f0.vlt", "f1.vlt", "f2.vlt"]
    for i in range(3):
        np.testing.assert_array_equal(vlt.load_tensor(tmp_path / "scaled" / f"f{i}.vlt"),
                                      vlt.load_tensor(dirs["rel"] / f"f{i}.vlt") * factor)


def test_align_scale_rejects_camera_count_mismatch(tmp_path):
    dirs = _align_inputs(tmp_path, 3, 1)
    proc = run_cli("align-scale", "--depth-rel", str(dirs["rel"]),
                   "--depth-metric", str(dirs["met"]), "--cameras", str(dirs["cams"]),
                   "--out", str(tmp_path / "scale.json"),
                   "--scaled-out", str(tmp_path / "scaled"), check=False)
    assert proc.returncode == 1
    assert "1 camera file(s) for 3 depth file(s)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "scaled").exists()


def test_align_scale_refuses_a_metric_camera_before_writing(tmp_path):
    from geovid.geometry import CameraModel
    dirs = _align_inputs(tmp_path, 3, 3)
    cam = CameraModel.load(dirs["cams"] / "c1.json")
    CameraModel(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy, rotation=cam.rotation,
                translation=cam.translation, scale_kind="metric").save(dirs["cams"] / "c1.json")
    proc = run_cli("align-scale", "--depth-rel", str(dirs["rel"]),
                   "--depth-metric", str(dirs["met"]), "--cameras", str(dirs["cams"]),
                   "--out", str(tmp_path / "scale.json"),
                   "--scaled-out", str(tmp_path / "scaled"), check=False)
    assert proc.returncode == 1, proc.stderr
    assert f"{dirs['cams'] / 'c1.json'} holds a 'metric' camera" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "scale.json").exists() and not (tmp_path / "scaled").exists()


@pytest.mark.parametrize("samples", [0, -1])
def test_align_scale_refuses_samples_below_one(tmp_path, samples):
    dirs = _align_inputs(tmp_path, 3, 0)
    proc = run_cli("align-scale", "--depth-rel", str(dirs["rel"]),
                   "--depth-metric", str(dirs["met"]), "--samples", str(samples),
                   "--out", str(tmp_path / "scale.json"), check=False)
    assert proc.returncode == 1, proc.stderr
    assert f"sample count must be at least 1, got {samples}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "scale.json").exists()


def test_exit_code_degenerate(tmp_path):
    from geovid.numkit import vlt
    rel_dir = tmp_path / "rel"
    met_dir = tmp_path / "met"
    rel_dir.mkdir()
    met_dir.mkdir()
    # 2x2 maps: fewer than the 32-pixel overlap floor -> degenerate scene
    vlt.save_tensor(rel_dir / "f0.vlt", np.ones((2, 2)))
    vlt.save_tensor(met_dir / "f0.vlt", np.ones((2, 2)))
    proc = run_cli("align-scale", "--depth-rel", str(rel_dir),
                   "--depth-metric", str(met_dir),
                   "--out", str(tmp_path / "s.json"), check=False)
    assert proc.returncode == 2


def test_cli_byte_determinism(workspace, tmp_path_factory):
    root, cfg_path = workspace
    outs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"det_{tag}")
        run_cli("gen-scenes", "--config", str(cfg_path), "--out", str(out / "scenes"))
        run_cli("train", "--stage", "1", "--config", str(cfg_path),
                "--scenes", str(out / "scenes"), "--out", str(out / "s1"))
        run_cli("infer", "--ckpt", str(out / "s1" / "ckpt"),
                "--scene", str(out / "scenes" / "scene_0000"),
                "--out", str(out / "pred"))
        outs.append(out)
    a, b = outs
    for rel in ("s1/ckpt/weights.vlt", "s1/ckpt/manifest.json", "s1/log.jsonl",
                "pred/cloud.ply", "pred/metrics.json",
                "scenes/scene_0000/scene.vlt", "scenes/scene_0000/scene.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_compare_cli(workspace, tmp_path):
    root, cfg_path = workspace
    run_cli("compare", "--config", str(cfg_path),
            "--strategies", "two_stage_dual,single_stage",
            "--sizes", "2", "--out", str(tmp_path / "cmp.csv"))
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert lines[0] == "strategy,data_size,seed,test_loss,recon,vl,md"
    assert [line.split(",")[2] for line in lines[1:]] == ["11", "11"]   # the config's seed


@pytest.mark.parametrize("flag, value, code, named", [
    ("--sizes", "x", 1, "--sizes entry 'x' is not an integer"),
    ("--seeds", "1.5", 1, "--seeds entry '1.5' is not an integer"),
    ("--seeds", ",", 2, "need at least one strategy, one size and one seed"),
    ("--seeds", "-1", 1, "seed must be nonnegative"),
])
def test_compare_refuses_a_bad_list(workspace, tmp_path, flag, value, code, named):
    _, cfg_path = workspace
    lists = {"--sizes": "2", "--seeds": "11", flag: value}
    proc = run_cli("compare", "--config", str(cfg_path), "--strategies", "single_stage",
                   *(x for item in lists.items() for x in item),
                   "--out", str(tmp_path / "cmp.csv"), check=False)
    assert proc.returncode == code
    assert named in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "cmp.csv").exists()


@pytest.mark.parametrize("text, named", [
    ('{"bogus": 1}', "bogus"),
    ('{"resolution": 56}', "resolution"),
    ('{"resolution": [-28, 28]}', "resolution must be positive"),
    ('{"dim": "64"}', "dim"),
    ('{"ordinal_bins": false}', "ordinal_bins"),
    ('{"lambda_sc": 0.25}', "lambda_sc"),
    ('{"clip": true}', "clip"),
    ('{"tau_f": NaN}', "tau_f"),
    ('{"seed": 1,', "not valid JSON"),
])
def test_bad_config_exit_code(tmp_path, text, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    proc = run_cli("train", "--stage", "1", "--config", str(cfg), "--scenes",
                   str(tmp_path), "--out", str(tmp_path / "out"), check=False)
    assert proc.returncode == 1
    assert named in proc.stderr and "Traceback" not in proc.stderr


def test_train_refuses_a_nan_lr_before_training(workspace, tmp_path):
    root, _ = workspace
    (tmp_path / "cfg.json").write_text(json.dumps(TINY_CFG).replace("}", ', "lr": NaN}'))
    proc = run_cli("train", "--stage", "1", "--config", str(tmp_path / "cfg.json"),
                   "--scenes", str(root / "scenes"), "--out", str(tmp_path / "out"), check=False)
    assert proc.returncode == 1, proc.stderr
    assert "config key 'lr' must be finite" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "ckpt").exists()


def test_checked_in_fixture_configs_load():
    from geovid.config import RunConfig
    fixtures = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
    paths = sorted(fixtures.glob("*.npz"))
    assert paths
    for path in paths:
        with np.load(path) as z:
            RunConfig.from_json(json.loads(str(z["__config__"])))


PLY_HEADER = (b"ply\nformat binary_little_endian 1.0\nelement vertex %d\nproperty double x\n"
              b"property double y\nproperty double z\nend_header\n")


def test_eval_rejects_truncated_ply(tmp_path):
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "cloud.ply").write_bytes(PLY_HEADER % 3 + bytes(24))
    proc = run_cli("eval", "--pred", str(pred), "--gt", str(pred),
                   "--out", str(tmp_path / "report.json"), check=False)
    assert proc.returncode == 1
    assert str(pred / "cloud.ply") in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("old, new, said", [
    (b"property double z\n", b"property double z\nproperty uchar rXd\n", "PLY header"),
    (b"binary_little_endian", b"binary_big_endian", "PLY header"),
    (b"property double z\n", b"", "PLY header"),
    (b"format binary_little_endian", b"format ascii", "rerun `geovid infer`"),
], ids=["corrupt-red", "binary-format", "no-z", "ascii-format"])
def test_eval_rejects_unsupported_ply_header(tmp_path, old, new, said):
    from geovid.patch3d import PointCloud, write_ply
    pred = tmp_path / "pred"
    pred.mkdir()
    write_ply(pred / "cloud.ply", PointCloud(points=np.zeros((2, 3))))
    data = (pred / "cloud.ply").read_bytes()
    (pred / "cloud.ply").write_bytes(data.replace(old, new, 1))
    proc = run_cli("eval", "--pred", str(pred), "--gt", str(pred),
                   "--out", str(tmp_path / "report.json"), check=False)
    assert proc.returncode == 1
    assert str(pred / "cloud.ply") in proc.stderr and said in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_eval_rejects_non_finite_tau(workspace, tmp_path, tau):
    root, _ = workspace
    scene = str(root / "scenes" / "scene_0000")
    proc = run_cli("eval", "--pred", scene, "--gt", scene, "--tau", tau,
                   "--out", str(tmp_path / "report.json"), check=False)
    assert proc.returncode == 1
    assert "tau must be positive and finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "report.json").exists()


def test_eval_checks_tau_without_a_cloud(tmp_path):
    # nothing to score: an empty pred directory against itself
    (tmp_path / "pred").mkdir()
    proc = run_cli("eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "pred"),
                   "--tau", "nan", "--out", str(tmp_path / "report.json"), check=False)
    assert proc.returncode == 1
    assert "tau must be positive and finite" in proc.stderr
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("kind", ["camera", "depth", "cloud"])
def test_eval_rejects_count_mismatch(workspace, tmp_path, kind):
    # the ground truth is a 3-frame scene, so it also yields a cloud; the pred
    # directory has 3 camera and 3 depth files, but 2 of `kind`, and no cloud.ply
    from geovid.numkit import vlt
    from geovid.synthscene import load_scene
    root, _ = workspace
    scene = root / "scenes" / "scene_0000"
    frames = load_scene(scene).frames
    for sub in ("cameras", "depth"):
        (tmp_path / "pred" / sub).mkdir(parents=True)
    for i in range(2 if kind == "camera" else 3):
        frames[i].camera.save(tmp_path / "pred" / "cameras" / f"frame_{i:03d}.json")
    for i in range(2 if kind == "depth" else 3):
        vlt.save_tensor(tmp_path / "pred" / "depth" / f"frame_{i:03d}.vlt",
                        frames[i].depth.values)
    proc = run_cli("eval", "--pred", str(tmp_path / "pred"), "--gt", str(scene),
                   "--out", str(tmp_path / "report.json"), check=False)
    assert proc.returncode == 1
    assert (f"--pred has no {tmp_path / 'pred' / 'cloud.ply'} for --gt's cloud"
            if kind == "cloud" else f"--pred has 2 {kind} file(s) for 3 in --gt") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "report.json").exists()


def test_eval_rejects_non_finite_pred_camera(workspace, tmp_path):
    from geovid.synthscene import load_scene
    root, _ = workspace
    scene = root / "scenes" / "scene_0000"
    cam = load_scene(scene).frames[0].camera.to_json()
    cam["translation"] = [float("nan"), 0.0, 0.0]
    (tmp_path / "pred" / "cameras").mkdir(parents=True)
    (tmp_path / "pred" / "cameras" / "frame_000.json").write_text(json.dumps(cam))
    proc = run_cli("eval", "--pred", str(tmp_path / "pred"), "--gt", str(scene),
                   "--out", str(tmp_path / "report.json"), check=False)
    assert proc.returncode == 1
    assert "must be finite" in proc.stderr and "Traceback" not in proc.stderr


def test_infer_artifact_bytes_pinned(tmp_path):
    # infer's cloud and depth bytes on a fixed scene and an untrained model,
    # pinned so a speed-up of the metric-bin head or the PLY writer that moves
    # a single bit fails here
    from geovid.config import RunConfig
    from geovid.model import init_model, save_checkpoint
    from geovid.synthscene import save_scene
    from geovid.train import generate_scenes

    cfg = RunConfig(seed=5, dim=16, heads=2, blocks=2, bridge_tokens=4, n_bins=16,
                    resolution=(56, 56), frames_per_scene=2, n_objects=3,
                    stage2_frames=2)
    save_scene(tmp_path / "scene", generate_scenes(cfg, count=1)[0])
    save_checkpoint(tmp_path / "ckpt", init_model(cfg), cfg)
    run_cli("infer", "--ckpt", str(tmp_path / "ckpt"), "--scene", str(tmp_path / "scene"),
            "--out", str(tmp_path / "pred"))
    digests = {name: hashlib.sha256((tmp_path / "pred" / name).read_bytes()).hexdigest()
               for name in ("cloud.ply", "depth/frame_000.vlt")}
    assert digests == {
        "cloud.ply": "280984c12e97d7f91622c04acfe2b12989a62d7a068314536a20ce9d350f043e",
        "depth/frame_000.vlt": "3cecb4108369a9da95f1146aad6ea0a07e7017fbedda57672fb08bfc56ed34e1",
    }


def _infer_with_a_randomized_camera_head(tmp_path):
    """geovid infer on 8 frames at 56x56 into tmp_path/pred, from
    tmp_path/scene and tmp_path/ckpt: 56 camera pairs and 6,272-point
    clouds. The camera head's output layer is randomized: zero-initialized,
    it gives every frame the same pose, and every pair would drop out of the
    translation errors."""
    from geovid.config import RunConfig
    from geovid.model import init_model, save_checkpoint
    from geovid.synthscene import save_scene
    from geovid.train import generate_scenes

    cfg = RunConfig(seed=5, dim=16, heads=2, blocks=2, bridge_tokens=4, n_bins=16,
                    resolution=(56, 56), frames_per_scene=8, n_objects=3,
                    stage2_frames=2)
    params = init_model(cfg)
    w2 = params.camera_head.mlp.w2
    w2.data = np.random.default_rng(5).normal(0.0, 0.5, w2.shape)
    save_scene(tmp_path / "scene", generate_scenes(cfg, count=1)[0])
    save_checkpoint(tmp_path / "ckpt", params, cfg)
    return run_cli("infer", "--ckpt", str(tmp_path / "ckpt"), "--scene", str(tmp_path / "scene"),
                   "--out", str(tmp_path / "pred"))


def test_infer_metrics_bytes_pinned(tmp_path):
    # pinned so a faster pose or point-cloud scoring that moves a single bit
    # fails here
    proc = _infer_with_a_randomized_camera_head(tmp_path)
    assert "excluded" not in proc.stderr
    digests = {name: hashlib.sha256((tmp_path / "pred" / name).read_bytes()).hexdigest()
               for name in ("cloud.ply", "metrics.json")}
    assert digests == {
        "cloud.ply": "6815b33ccb7ddbbed16bb436d245748f80caca6269eeb3820a6d866ffc6b690f",
        "metrics.json": "cff2213314d834e2ae42d1d4250bc9faff27cf2af480612d49da55a6005e7688",
    }


def test_eval_reproduces_infer_metrics(tmp_path):
    # eval scores the files infer wrote, so it must read back infer's exact
    # cloud, cameras and depths
    _infer_with_a_randomized_camera_head(tmp_path)
    run_cli("eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "scene"),
            "--out", str(tmp_path / "report.json"))
    report = json.loads((tmp_path / "report.json").read_text())
    metrics = json.loads((tmp_path / "pred" / "metrics.json").read_text())
    assert report["recon"] is not None
    for part in ("recon", "pose", "depth"):
        assert report[part] == metrics[part], part
