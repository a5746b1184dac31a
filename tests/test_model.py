import dataclasses
import gc
import json
import re
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest

from geovid import metric_depth
from geovid.config import RETIRED, RunConfig
from geovid.errors import DegenerateInputError, ParameterError, ShapeError
from geovid.model import (
    adapt, encode, init_model, load_checkpoint, predict_window, save_checkpoint,
)
from geovid.numkit import Role, no_grad, vlt
from geovid.scale_align import SAMPLE_COUNT, sample_frames
from geovid.synthscene import (
    FRAME_RECORDS, NUM_CLASSES, TokenizerConfig, gen_scene, load_scene, save_scene,
)
from geovid.train import _aligned_depth_for_vl, generate_scenes, run_pipeline

CFG = RunConfig(seed=5, dim=16, heads=2, blocks=2, bridge_tokens=4,
                resolution=(28, 28), n_bins=8, n_scenes=1, frames_per_scene=2,
                n_objects=3)


@pytest.fixture(scope="module")
def scene():
    return gen_scene(42, n_frames=2, resolution=(28, 28), n_objects=3,
                     tokenizer=TokenizerConfig(dim=16, seed=5))


def test_init_model_deterministic():
    a = init_model(CFG).named_tensors()
    b = init_model(CFG).named_tensors()
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k].data, b[k].data)


def test_named_tensors_cover_all_modules():
    names = set(init_model(CFG).named_tensors())
    prefixes = {n.split(".")[0] for n in names}
    assert prefixes == {"encoder", "cta", "backbone", "camera_head",
                        "depth_head", "metric", "pos_embed", "vl_head"}


def test_stage1_subset(scene):
    params = init_model(CFG)
    s1 = set(params.stage1_tensors())
    assert all(n.startswith(("encoder.", "cta.")) for n in s1)
    assert s1 < set(params.named_tensors())


def test_encode_preserves_role(scene):
    params = init_model(CFG)
    out = encode(scene.frames[0].base, params)
    assert out.role == Role.BASE
    assert out.tokens.shape == scene.frames[0].base.tokens.shape


def test_adapt_produces_streams(scene):
    params = init_model(CFG)
    out = adapt(scene.frames[0].base, params)
    assert out.geom.role == Role.GEOM
    assert out.lang.role == Role.LANG
    assert out.bridge.tokens.shape == (4, 16)


def _spy_ordinal_depth(monkeypatch) -> list:
    """Record the (logits, raw) shapes of every ordinal_depth call."""
    shapes, original = [], metric_depth.ordinal_depth

    def spy(grid, logits, raw, bins):
        shapes.append((logits.shape, raw.shape))
        return original(grid, logits, raw, bins)

    monkeypatch.setattr(metric_depth, "ordinal_depth", spy)
    return shapes


def test_predict_window_shapes(scene, monkeypatch):
    params = init_model(CFG)
    bin_shapes = _spy_ordinal_depth(monkeypatch)
    pred = predict_window(scene.frames, params, CFG)
    assert len(pred.frames) == 2
    assert pred.cameras.quat.shape == (2, 4) and pred.cameras.fx.shape == (2,)
    assert all(a is b for a, b in zip(pred.frames, scene.frames))
    assert pred.lang.role == Role.LANG and pred.lang.tokens.shape == (2, 4, 16)
    assert pred.depth_rel.shape == (2, 28, 28)
    assert pred.depth_rel.data.min() > 0
    assert pred.depth_metric.shape == (2, 28 * 28)
    # one call per window on its [F, P, N] patch outputs
    assert bin_shapes == [((2, 4, CFG.n_bins), (2, 4, CFG.n_bins))]
    for cam in pred.cameras.to_cameras():
        assert abs(np.linalg.det(cam.rotation) - 1.0) < 1e-9


@pytest.mark.parametrize("md_mode", ["full", "off"])
def test_scene_forward_is_bit_identical_to_stitched_windows(md_mode):
    # ragged scenes at 4 frames per backbone window: one window, two with a
    # 1-frame tail, three with a 1-frame tail
    from _oracles import stitched_windows

    cfg = replace(CFG, stage2_frames=4, md_mode=md_mode)
    frames = gen_scene(43, n_frames=9, resolution=(28, 28), n_objects=3,
                       tokenizer=TokenizerConfig(dim=16, seed=5)).frames
    params = init_model(cfg)
    for n in (1, 5, 9):
        with no_grad():
            got, ref = (f(frames[:n], params, cfg) for f in (predict_window, stitched_windows))
        assert all(a is b for a, b in zip(got.frames, ref.frames))
        assert np.array_equal(got.lang.tokens.data, ref.lang.tokens.data)
        assert np.array_equal(got.depth_rel.data, ref.depth_rel.data)
        assert (got.depth_metric is None) == (md_mode == "off")
        if got.depth_metric is not None:
            assert np.array_equal(got.depth_metric.data, ref.depth_metric.data)
        a, b = got.cameras, ref.cameras
        assert a.quat.shape == b.quat.shape == (n, 4)
        for field in ("quat", "translation", "fx", "fy"):
            assert np.array_equal(getattr(a, field).data, getattr(b, field).data), field
        assert (a.cx, a.cy) == (b.cx, b.cy)


def test_predict_window_runs_the_backbone_once_per_window(scene, monkeypatch):
    # through the module attribute, which the benchmark's tracer wraps
    import geovid.model

    calls, original = [], geovid.model.gfa_backbone

    def spy(frames, p):
        calls.append(frames.tokens.shape[0])
        return original(frames, p)

    monkeypatch.setattr(geovid.model, "gfa_backbone", spy)
    frames = scene.frames * 5
    for k in (1, 2, 4, 10, 12):
        predict_window(frames, init_model(CFG), replace(CFG, stage2_frames=k))
    assert calls == [1] * 10 + [2] * 5 + [4, 4, 2] + [10] + [10]


def test_predict_window_empty_rejected():
    params = init_model(CFG)
    with pytest.raises(ShapeError):
        predict_window([], params, CFG)


@pytest.fixture(scope="module")
def default_scene():
    """A default 32-frame scene and untrained default weights."""
    cfg = RunConfig(n_scenes=1)
    return cfg, generate_scenes(cfg)[0], init_model(cfg)


def test_metric_head_on_the_scale_sample_gives_the_same_rows(default_scene):
    cfg, scene, params = default_scene
    sampled = sample_frames(len(scene.frames), SAMPLE_COUNT, cfg.seed)
    assert len(sampled) == SAMPLE_COUNT < len(scene.frames) == 32
    with no_grad():
        full = predict_window(scene.frames, params, cfg)
        part = predict_window(scene.frames, params, cfg, metric_frames=sampled)
    assert full.metric_frames is None and part.metric_frames == sampled
    assert part.depth_metric.shape == (SAMPLE_COUNT, 56 * 56)
    assert np.array_equal(part.depth_metric.data, full.depth_metric.data[sampled])
    assert np.array_equal(part.depth_rel.data, full.depth_rel.data)
    scales = [_aligned_depth_for_vl(p, cfg)[2].to_json() for p in (full, part)]
    assert scales[0] == scales[1] and scales[0]["frames"] == sampled


def _spy_metric_head(monkeypatch) -> list:
    """Record the input tokens of every call through `geovid.model.predict_metric_depth`,
    the attribute the benchmark's tracer wraps."""
    import geovid.model

    calls, original = [], geovid.model.predict_metric_depth

    def spy(tokens, image_size, p):
        calls.append(tokens.tokens.data)
        return original(tokens, image_size, p)

    monkeypatch.setattr(geovid.model, "predict_metric_depth", spy)
    return calls


@pytest.mark.filterwarnings("ignore:.*zero-length relative translation")   # untrained poses
@pytest.mark.parametrize("md_mode", ["full", "no_alignment"])
def test_run_pipeline_runs_the_metric_head_on_the_frames_it_reads(default_scene, monkeypatch,
                                                                  md_mode):
    cfg, scene, params = default_scene
    cfg = replace(cfg, md_mode=md_mode)
    calls = _spy_metric_head(monkeypatch)
    with no_grad():
        predict_window(scene.frames, params, cfg)   # every frame's head input
    result = run_pipeline(cfg, scene, params)
    assert len(calls) == 2
    every, got = calls
    assert len(every) == len(scene.frames)
    used = (range(len(scene.frames)) if md_mode == "no_alignment"
            else result.scale.images_used)
    assert len(used) == (SAMPLE_COUNT if md_mode == "full" else 32)
    assert np.array_equal(got, every[list(used)])


def test_run_pipeline_below_the_overlap_floor_is_degenerate():
    # a 4x4 image has fewer than MIN_OVERLAP_PIXELS pixels, so no frame is usable
    cfg = RunConfig(n_scenes=1, frames_per_scene=2, resolution=(4, 4), patch_size=2,
                    dim=16, heads=2, blocks=2, bridge_tokens=4, n_bins=8, n_objects=3)
    with pytest.raises(DegenerateInputError, match="no frame has enough valid overlap"):
        run_pipeline(cfg, generate_scenes(cfg)[0], init_model(cfg))


def test_md_off_skips_metric(scene, monkeypatch):
    cfg = RunConfig(**{**CFG.to_json(), "md_mode": "off",
                       "resolution": (28, 28)})
    params = init_model(cfg)
    bin_shapes = _spy_ordinal_depth(monkeypatch)
    pred = predict_window(scene.frames, params, cfg)
    assert bin_shapes == []
    assert pred.depth_metric is None


def _reachable_arrays(root) -> list[np.ndarray]:
    """Every ndarray reachable from `root` through object references, not
    following classes, modules or functions (which reach global state)."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        stack.extend(gc.get_referents(obj))
    return arrays


def test_predictions_hold_no_per_pixel_bins(scene):
    # the [HW, n_bins] probabilities and centers are intermediates of the
    # metric head; without a graph nothing may keep them alive
    params = init_model(CFG)
    with no_grad():
        pred = predict_window(scene.frames, params, CFG)
    shapes = {a.shape for a in _reachable_arrays(pred)}
    assert (2, 28 * 28) in shapes   # the metric depth itself is reached
    assert (28 * 28, CFG.n_bins) not in shapes
    assert (2, 28 * 28, CFG.n_bins) not in shapes


def test_config_validation():
    with pytest.raises(ParameterError):
        RunConfig(strategy="nope")
    with pytest.raises(ParameterError):
        RunConfig(md_mode="sometimes")
    with pytest.raises(ParameterError):
        RunConfig(dim=0)
    for tau in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ParameterError, match="tau_f"):
            RunConfig.from_json({"tau_f": tau})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                 if isinstance(f.default, float)])
def test_config_refuses_a_non_finite_float(key, value):
    with pytest.raises(ParameterError, match=key):
        RunConfig.from_json({key: value})


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                 if isinstance(f.default, float)])
def test_config_refuses_a_float_past_the_float_range(key):
    # a JSON integer too large for a float; a smaller one loads as a float
    with pytest.raises(ParameterError, match=f"'{key}' must be finite"):
        RunConfig.from_json({key: 10**400})
    assert type(getattr(RunConfig.from_json({key: 1}), key)) is float


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_config_accepts_retired_key_only_at_its_value(key):
    # older configs and checkpoints hold each retired key at its one value;
    # another value, or a bool passing as a number (True == 1.0), is refused
    held = RETIRED[key]
    assert key not in RunConfig().to_json()
    assert RunConfig.from_json({key: held, "dim": 32}) == RunConfig(dim=32)
    other = (not held) if isinstance(held, bool) else held * 2
    confusable = 1 if isinstance(held, bool) else True
    for bad in (other, confusable, str(held)):
        with pytest.raises(ParameterError, match=f"'{key}'"):
            RunConfig.from_json({key: bad})


def test_config_in_the_format_before_retirement_loads():
    # a config written while the retired keys were still fields
    assert RunConfig.from_json({**RunConfig().to_json(), **RETIRED}) == RunConfig()


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_load_checkpoint_accepts_manifest_with_retired_key(tmp_path, key):
    save_checkpoint(tmp_path / "ckpt", init_model(CFG), CFG)
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    assert key not in manifest["meta"]["config"]
    manifest["meta"]["config"][key] = RETIRED[key]
    (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
    _, cfg = load_checkpoint(tmp_path / "ckpt")
    assert cfg == CFG


def test_load_checkpoint_widens_f32_records(tmp_path):
    # VLT1 stores f32 too; a checkpoint of f32 records loads as numkit's float64
    save_checkpoint(tmp_path / "ckpt", init_model(CFG), CFG)
    arrays, meta = vlt.load_container(tmp_path / "ckpt")
    narrow = {name: a.astype(np.float32) for name, a in arrays.items()}
    vlt.save_container(tmp_path / "ckpt", narrow, meta=meta)
    params, _ = load_checkpoint(tmp_path / "ckpt")
    for name, tensor in params.named_tensors().items():
        assert tensor.data.dtype == np.float64, name
        assert np.array_equal(tensor.data, narrow[name]), name


def test_load_scene_widens_f32_records(tmp_path):
    # a scene of f32 records loads as float64 too
    save_scene(tmp_path / "s", gen_scene(5, n_frames=2, resolution=(28, 28), n_objects=2,
                                         tokenizer=TokenizerConfig(dim=16, seed=5)))
    path = tmp_path / "s" / "scene.vlt"
    narrow = {name: a.astype(np.float32)
              for name, a in zip(FRAME_RECORDS, vlt.read_file(path, len(FRAME_RECORDS)))}
    with open(path, "wb") as fh:
        for a in narrow.values():
            vlt.write_record(fh, a)
    frame = load_scene(tmp_path / "s").frames[1]
    for name, a in (("depth", frame.depth.values), ("summary", frame.patch_summary),
                    ("base", frame.base.tokens.data),
                    ("teacher_geom", frame.teacher_geom.tokens.data),
                    ("teacher_lang", frame.teacher_lang.tokens.data)):
        assert a.dtype == np.float64 and np.array_equal(a, narrow[name][1]), name


def test_load_checkpoint_checks_model_fields_against_config(tmp_path):
    save_checkpoint(tmp_path / "ckpt", init_model(CFG), CFG)
    # fields the model is not built from may differ
    params, cfg = load_checkpoint(tmp_path / "ckpt", replace(CFG, lr=1e-4, seed=3))
    assert cfg == CFG
    for name, value in init_model(CFG).named_tensors().items():
        assert np.array_equal(params.named_tensors()[name].data, value.data), name
    with pytest.raises(ParameterError, match="n_bins=8 but --config has 16"):
        load_checkpoint(tmp_path / "ckpt", replace(CFG, n_bins=16))


@pytest.mark.parametrize("field, value, match", [
    ("dim", 4096, "'encoder.w1' is \\(64, 256\\), the config gives \\(4096, 16384\\)"),
    ("dim", 100000, "'encoder.w1' is \\(64, 256\\), the config gives \\(100000, 400000\\)"),
    ("blocks", 6, "other tensor names"),
    ("n_bins", 10**6,
     "'metric.logits_mlp.w2' is \\(64, 64\\), the config gives \\(64, 1000000\\)"),
])
def test_load_checkpoint_refuses_a_config_its_weights_do_not_fit(tmp_path, field, value, match):
    # a manifest claiming a far larger model than its weights fails at once,
    # without drawing or allocating the model it claims
    save_checkpoint(tmp_path / "ckpt", init_model(RunConfig()), RunConfig())
    path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["meta"]["config"][field] = value
    path.write_text(json.dumps(manifest))
    weights = (tmp_path / "ckpt" / "weights.vlt").stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=f"{re.escape(str(path))}.*{match}"):
            load_checkpoint(tmp_path / "ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * weights


def test_config_json_roundtrip(tmp_path):
    cfg = RunConfig(seed=9, dim=32, md_mode="no_alignment")
    cfg.save(tmp_path / "c.json")
    loaded = RunConfig.load(tmp_path / "c.json")
    assert loaded.to_json() == cfg.to_json()
    assert loaded.resolution == (56, 56)


def test_vl_head_matches_class_count():
    params = init_model(CFG)
    assert params.vl_head.out_dim == NUM_CLASSES
