"""Corrupt scene directories, checkpoints and PLY files: every load either
succeeds or raises ParameterError, in bounded time and memory, and the CLI
exits 1."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geovid.config import RunConfig
from geovid.errors import ParameterError
from geovid.model import init_model, load_checkpoint, save_checkpoint
from geovid.numkit import vlt
from geovid.patch3d import PointCloud, read_ply, write_ply
from geovid.synthscene import FRAME_RECORDS, TokenizerConfig, gen_scene, load_scene, save_scene

SRC = str(Path(__file__).resolve().parent.parent / "src")
CFG = RunConfig(seed=3, dim=16, heads=2, blocks=2, bridge_tokens=4, resolution=(28, 28),
                n_bins=8, n_objects=3, stage2_frames=2)
PEAK_BYTES = 64 * 2**20   # a load of these few-kilobyte files stays far below this

# a numeric warning while loading corrupt bytes is a missed check, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(scene dir, checkpoint dir), each with every file it holds."""
    root = tmp_path_factory.mktemp("corrupt")
    save_scene(root / "scene", gen_scene(4, n_frames=2, resolution=(28, 28), n_objects=3,
                                         tokenizer=TokenizerConfig(dim=16, seed=3)))
    save_checkpoint(root / "ckpt", init_model(CFG), CFG)
    return root / "scene", root / "ckpt"


@pytest.fixture(scope="module")
def ply_dir(tmp_path_factory):
    """A directory with a 12-point PLY file and an empty one; the points span
    magnitudes from 1e-7 to 1e3."""
    root = tmp_path_factory.mktemp("ply")
    rng = np.random.default_rng(0)
    points = rng.standard_normal((12, 3)) * 10.0 ** rng.integers(-7, 4, size=(12, 1))
    write_ply(root / "empty.ply", PointCloud(np.zeros((0, 3))))
    write_ply(root / "plain.ply", PointCloud(points))
    return root


def _files(directory: Path) -> list[str]:
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*") if p.is_file())


def _corrupted_copy(directory: Path, dest: Path, name: str, cut: bool, pos: float,
                    value: int) -> Path:
    """A copy of `directory` whose file `name` is cut short at a fraction
    `pos` of its length, or has the byte there replaced by a different one."""
    shutil.copytree(directory, dest)
    target = dest / name
    data = bytearray(target.read_bytes())
    i = min(int(pos * len(data)), len(data) - 1)
    if cut:
        data = data[:i]
    else:
        data[i] = (data[i] + value) % 256
    target.write_bytes(bytes(data))
    return dest


def _load_bounded(load, path: Path) -> None:
    tracemalloc.start()
    try:
        load(path)
    except ParameterError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < PEAK_BYTES


MUTATIONS = dict(cut=st.booleans(), pos=st.floats(0.0, 1.0), value=st.integers(1, 255))
FUZZ = settings(max_examples=150, deadline=2000,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.data(), **MUTATIONS)
def test_corrupt_scene_loads_or_raises_parameter_error(saved, data, cut, pos, value):
    scene_dir, _ = saved
    name = data.draw(st.sampled_from(_files(scene_dir)))
    with tempfile.TemporaryDirectory() as tmp:
        bad = _corrupted_copy(scene_dir, Path(tmp) / "s", name, cut, pos, value)
        _load_bounded(load_scene, bad)


@FUZZ
@given(data=st.data(), **MUTATIONS)
def test_corrupt_checkpoint_loads_or_raises_parameter_error(saved, data, cut, pos, value):
    _, ckpt_dir = saved
    name = data.draw(st.sampled_from(_files(ckpt_dir)))
    with tempfile.TemporaryDirectory() as tmp:
        bad = _corrupted_copy(ckpt_dir, Path(tmp) / "c", name, cut, pos, value)
        _load_bounded(load_checkpoint, bad)


@FUZZ
@given(data=st.data(), **MUTATIONS)
def test_corrupt_ply_loads_or_raises_parameter_error(ply_dir, data, cut, pos, value):
    name = data.draw(st.sampled_from(_files(ply_dir)))
    with tempfile.TemporaryDirectory() as tmp:
        bad = _corrupted_copy(ply_dir, Path(tmp) / "p", name, cut, pos, value)
        _load_bounded(read_ply, bad / name)


def _rewrite_record(path: Path, name: str, bad) -> None:
    """Replace scene.vlt's record `name` at `path` with `bad` of it."""
    records = dict(zip(FRAME_RECORDS, vlt.read_file(path, len(FRAME_RECORDS))))
    records[name] = bad(records[name])
    with open(path, "wb") as fh:
        for arr in records.values():
            if arr.ndim:
                vlt.write_record(fh, arr)
            else:   # a 0-D record, which write_record never makes
                fh.write(vlt.MAGIC + struct.pack("<BB", 1, 0) + arr.tobytes())


@pytest.mark.parametrize("value", [2.5, -1.0, 11.0, 1e300])
@pytest.mark.parametrize("record", ["frame_000/labels", "frame_001/patch_labels"])
def test_bad_class_label_names_the_file(saved, tmp_path, record, value):
    scene_dir, _ = saved
    shutil.copytree(scene_dir, tmp_path / "scene")
    path = tmp_path / "scene" / "scene.vlt"
    frame, name = record.split("/")

    def bad(stack):
        stack[int(frame[-3:])].reshape(-1)[-1] = value
        return stack

    _rewrite_record(path, name, bad)
    with pytest.raises(ParameterError, match=re.escape(f"{path} record {name} {frame}: ")):
        load_scene(tmp_path / "scene")


def _bad_cameras(scene_json: Path, content: bytes) -> None:
    """Rewrite scene.json with `content` in place of each entry of its `cameras` list."""
    meta = json.loads(scene_json.read_text())
    meta["cameras"] = ["CAMERA"] * len(meta["cameras"])
    scene_json.write_bytes(json.dumps(meta).encode().replace(b'"CAMERA"', content))


@pytest.mark.parametrize("content", [b'{"tensors": ["enc', b"[]", b"{}", b"\xff\xfe{}"],
                         ids=["truncated", "list", "empty-object", "not-utf8"])
@pytest.mark.parametrize("name", ["ckpt/manifest.json", "scene/scene.json",
                                  "scene/scene.json:cameras"])
def test_bad_json_names_the_file(saved, tmp_path, name, content):
    scene_dir, ckpt_dir = saved
    shutil.copytree(scene_dir, tmp_path / "scene")
    shutil.copytree(ckpt_dir, tmp_path / "ckpt")
    if name.endswith(":cameras"):
        _bad_cameras(tmp_path / "scene" / "scene.json", content)
    else:
        (tmp_path / name).write_bytes(content)
    load = {"ckpt": load_checkpoint, "scene": load_scene}[name.split("/")[0]]
    with pytest.raises(ParameterError, match="json"):
        load(tmp_path / name.split("/")[0])


def test_missing_key_is_named(saved, tmp_path):
    _, ckpt_dir = saved
    shutil.copytree(ckpt_dir, tmp_path / "ckpt")
    (tmp_path / "ckpt" / "manifest.json").write_text('{"meta": {}}')
    with pytest.raises(ParameterError, match="no key 'tensors'"):
        vlt.load_container(tmp_path / "ckpt")


@pytest.mark.parametrize("which, name, cut", [
    ("scene", "scene.json", 0.5), ("scene", "scene.vlt", 0.5),
    ("ckpt", "manifest.json", 0.3), ("ckpt", "weights.vlt", 0.9),
])
def test_cli_exits_1_on_corrupt_input(saved, tmp_path, which, name, cut):
    scene_dir, ckpt_dir = saved
    bad = _corrupted_copy(scene_dir if which == "scene" else ckpt_dir, tmp_path / which,
                          name, True, cut, 1)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "geovid.cli", "infer",
         "--ckpt", str(bad if which == "ckpt" else ckpt_dir),
         "--scene", str(bad if which == "scene" else scene_dir),
         "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("which, name", [("ckpt", "weights.vlt"), ("scene", "scene.vlt")])
def test_cli_exits_1_on_missing_vlt(saved, tmp_path, which, name):
    # a checkpoint without its records, and a scene without them, which is
    # also how a scene saved in the older per-frame layout looks
    scene_dir, ckpt_dir = saved
    shutil.copytree(scene_dir, tmp_path / "scene")
    shutil.copytree(ckpt_dir, tmp_path / "ckpt")
    (tmp_path / which / name).unlink()
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "geovid.cli", "infer", "--ckpt", str(tmp_path / "ckpt"),
         "--scene", str(tmp_path / "scene"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert str(tmp_path / which / name) in proc.stderr
    if which == "scene":
        assert "geovid gen-scenes" in proc.stderr


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "geovid.cli", *map(str, args)],
                          capture_output=True, text=True, env=env)


def _assert_exit_1_naming(proc, *names):
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    for name in names:
        assert str(name) in proc.stderr, proc.stderr


@pytest.mark.parametrize("record, bad, frame", [
    ("depth", lambda a: np.concatenate([a[:1], -a[1:]]), "frame_001"),
    ("depth", lambda a: a.reshape(-1), None), ("base", lambda a: a.reshape(-1), None),
    ("teacher_lang", lambda a: a[:, :0], None),
    ("summary", lambda a: a[:1], None), ("labels", lambda a: np.concatenate([a, a[:1]]), None),
    ("patch_labels", lambda a: np.array(a[0, 0]), None), ("base", lambda a: a[:, None], None),
    ("summary", lambda a: a[..., :5], None), ("base", lambda a: a[..., :8], None),
], ids=["negative-depth", "1-D-depth", "1-D-base", "empty-teacher", "one-frame-summary",
        "three-frame-labels", "0-D-patch-labels", "rank-4-base", "5-column-summary",
        "8-wide-base"])
def test_bad_scene_record_names_the_file_and_frame(saved, tmp_path, record, bad, frame):
    # a record that reads as a VLT1 array but fails its own checks: a shape
    # other than the one scene.json's frame count, resolution and tokenizer
    # give names the record, one frame's values the record and the frame; a
    # leading axis other than the frame count is never a raw IndexError
    scene_dir, ckpt_dir = saved
    shutil.copytree(scene_dir, tmp_path / "scene")
    path = tmp_path / "scene" / "scene.vlt"
    _rewrite_record(path, record, bad)
    where = f"{path} record {record} {frame}: " if frame else f"{path} record {record} is not [2,"
    with pytest.raises(ParameterError, match=re.escape(where)):
        load_scene(tmp_path / "scene")
    _assert_exit_1_naming(_run_cli("infer", "--ckpt", ckpt_dir, "--scene", tmp_path / "scene",
                                   "--out", tmp_path / "out"), where)


@pytest.mark.parametrize("layout", ["seven-records-per-frame", "per-frame-directories"])
def test_cli_exits_1_on_an_older_scene_layout(saved, tmp_path, layout):
    scene_dir, ckpt_dir = saved
    shutil.copytree(scene_dir, tmp_path / "scene")
    path = tmp_path / "scene" / "scene.vlt"
    frames = load_scene(scene_dir).frames
    if layout == "per-frame-directories":   # no scene.vlt or cameras, and a directory per frame
        path.unlink()
        meta = json.loads((tmp_path / "scene" / "scene.json").read_text())
        del meta["cameras"]
        (tmp_path / "scene" / "scene.json").write_text(json.dumps(meta))
        for f in frames:
            (tmp_path / "scene" / f"frame_{f.index:03d}").mkdir()
            vlt.save_tensor(tmp_path / "scene" / f"frame_{f.index:03d}" / "depth.vlt",
                            f.depth.values)
    else:
        with open(path, "wb") as fh:
            for f in frames:
                for arr in (f.depth.values, f.labels, f.patch_summary, f.patch_labels,
                            f.base.tokens.data, f.teacher_geom.tokens.data,
                            f.teacher_lang.tokens.data):
                    vlt.write_record(fh, arr.astype(np.float64))
    _assert_exit_1_naming(_run_cli("infer", "--ckpt", ckpt_dir, "--scene", tmp_path / "scene",
                                   "--out", tmp_path / "out"),
                          path, "regenerate it with `geovid gen-scenes`")


@pytest.mark.parametrize("field, value", [("fx", "NaN"), ("fy", "-1.0"), ("cx", "Infinity")])
def test_bad_pred_camera_names_the_file(saved, tmp_path, field, value):
    scene_dir, _ = saved
    cams = tmp_path / "pred" / "cameras"
    cams.mkdir(parents=True)
    for k, frame in enumerate(load_scene(scene_dir).frames):
        text = json.dumps({**frame.camera.to_json(), field: "VALUE"})
        (cams / f"frame_{k:03d}.json").write_text(text.replace('"VALUE"', value))
    _assert_exit_1_naming(_run_cli("eval", "--pred", tmp_path / "pred", "--gt", scene_dir,
                                   "--out", tmp_path / "report.json"), cams / "frame_000.json")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("bad", [lambda a: -a, lambda a: a[None]], ids=["negative", "3-D"])
@pytest.mark.parametrize("command", ["align-scale", "eval"])
def test_bad_depth_vlt_names_the_file(saved, tmp_path, command, bad):
    # align-scale's --depth-rel and eval's --pred depth files load alike
    scene_dir, _ = saved
    frames = load_scene(scene_dir).frames
    for sub in ("depth", "cameras"):
        (tmp_path / "pred" / sub).mkdir(parents=True)
    for k, frame in enumerate(frames):
        values = bad(frame.depth.values) if k == 1 else frame.depth.values
        vlt.save_tensor(tmp_path / "pred" / "depth" / f"frame_{k:03d}.vlt", values)
        frame.camera.save(tmp_path / "pred" / "cameras" / f"frame_{k:03d}.json")
    if command == "eval":
        args = ("--pred", tmp_path / "pred", "--gt", scene_dir, "--out", tmp_path / "out.json")
    else:
        shutil.copytree(tmp_path / "pred" / "depth", tmp_path / "metric")
        args = ("--depth-rel", tmp_path / "pred" / "depth", "--depth-metric",
                tmp_path / "metric", "--out", tmp_path / "out.json")
    _assert_exit_1_naming(_run_cli(command, *args),
                          tmp_path / "pred" / "depth" / "frame_001.vlt")
    assert not (tmp_path / "out.json").exists()


def test_train_scenes_file_names_the_path(saved, tmp_path):
    scene_dir, _ = saved
    (tmp_path / "cfg.json").write_text("{}")
    _assert_exit_1_naming(_run_cli("train", "--stage", "1", "--config", tmp_path / "cfg.json",
                                   "--scenes", scene_dir / "scene.json",
                                   "--out", tmp_path / "out"), scene_dir / "scene.json")
