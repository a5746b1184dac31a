"""Corrupt scene directories, checkpoints and PLY files: every load either
succeeds or raises ParameterError, in bounded time and memory, and the CLI
exits 1."""

import json
import os
import re
import shutil
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
    """A directory with one PLY file with colors and one without; the points
    span magnitudes from 1e-7 to 1e3, so some are written with exponents."""
    root = tmp_path_factory.mktemp("ply")
    rng = np.random.default_rng(0)
    points = rng.standard_normal((12, 3)) * 10.0 ** rng.integers(-7, 4, size=(12, 1))
    write_ply(root / "colored.ply", PointCloud(points, colors=rng.uniform(size=(12, 3))))
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


@pytest.mark.parametrize("value", [2.5, -1.0, 11.0, 1e300])
@pytest.mark.parametrize("record", ["frame_000/labels", "frame_001/patch_labels"])
def test_bad_class_label_names_the_file(saved, tmp_path, record, value):
    scene_dir, _ = saved
    shutil.copytree(scene_dir, tmp_path / "scene")
    path = tmp_path / "scene" / "scene.vlt"
    frame, name = record.split("/")
    records = vlt.read_file(path, 2 * len(FRAME_RECORDS))
    index = int(frame[-3:]) * len(FRAME_RECORDS) + FRAME_RECORDS.index(name)
    records[index].reshape(-1)[-1] = value
    with open(path, "wb") as fh:
        for arr in records:
            vlt.write_record(fh, arr)
    with pytest.raises(ParameterError, match=re.escape(f"{path} record {record} ")):
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
